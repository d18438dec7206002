"""Training and inspecting the anomaly detection models.

Shows the defender-side workflow: hyperparameter tuning with internal
validity indices (Fig. 4), inspecting the learned convex hulls per
zone, and scoring both ADM back-ends against BIoTA attack samples
(Table IV's protocol) — all on a reduced horizon.

Run with:  python examples/adm_training.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.adm.cluster_model import AdmParams, ClusterADM, ClusterBackend
from repro.adm.tuning import best_by_davies_bouldin, sweep_dbscan_min_pts
from repro.attack.biota import biota_attack_samples
from repro.core.report import format_table
from repro.dataset.splits import split_days
from repro.dataset.synthetic import SyntheticConfig, generate_house_trace
from repro.home.builder import build_house_a
from repro.hvac.pricing import TouPricing
from repro.runner.common import evaluate_adm_on_attacked


def main() -> None:
    home = build_house_a()
    trace = generate_house_trace(
        home, house="A", config=SyntheticConfig(n_days=12, seed=9)
    )
    train, _ = split_days(trace, 10)

    print("=== Hyperparameter tuning (Fig. 4 protocol) ===\n")
    sweep = sweep_dbscan_min_pts(
        train, home.n_zones, min_pts_values=[2, 3, 4, 6, 8, 12]
    )
    print(
        format_table(
            "DBSCAN minPts sweep (occupant 0)",
            ["minPts", "Davies-Bouldin", "Silhouette", "Calinski-Harabasz"],
            [
                [p.value, p.davies_bouldin, p.silhouette, p.calinski_harabasz]
                for p in sweep
            ],
        )
    )
    best = best_by_davies_bouldin(sweep)
    print(f"\nBest minPts by DBI: {best.value}\n")

    print("=== Learned hulls per zone (occupant 0, Alice) ===\n")
    adm = ClusterADM(
        AdmParams(backend=ClusterBackend.DBSCAN, eps=40.0, min_pts=4, tolerance=20.0)
    ).fit(train, home.n_zones)
    rows = []
    for zone in home.layout:
        hulls = adm.hulls(0, zone.zone_id)
        area = sum(hull.area() for hull in hulls)
        rows.append([zone.name, len(hulls), area])
    print(
        format_table(
            "Benign-behaviour hulls",
            ["Zone", "Clusters", "Total hull area (min^2)"],
            rows,
        )
    )

    print("\n=== Example stay-range queries (the attack scheduler's view) ===\n")
    bedroom = home.zone_id("Bedroom")
    for arrival in (0, 600, 1290):
        ranges = adm.stay_ranges(0, bedroom, arrival)
        if ranges:
            text = ", ".join(f"[{low:.0f}, {high:.0f}]" for low, high in ranges)
        else:
            text = "(no stealthy stay: any visit alarms)"
        print(f"  Bedroom arrival at minute {arrival:4d}: stays {text}")

    print("\n=== Detection of BIoTA attack samples (Table IV protocol) ===\n")
    reported, labels = biota_attack_samples(home, train, TouPricing(), seed=5)
    rows = []
    for backend, params in (
        (ClusterBackend.DBSCAN, AdmParams(eps=40.0, min_pts=4, tolerance=20.0)),
        (
            ClusterBackend.KMEANS,
            AdmParams(backend=ClusterBackend.KMEANS, k=4, tolerance=20.0),
        ),
    ):
        model = ClusterADM(params).fit(train, home.n_zones)
        metrics = evaluate_adm_on_attacked(model, reported, labels, occupant_id=0)
        rows.append(
            [
                backend.value,
                metrics.accuracy,
                metrics.precision,
                metrics.recall,
                metrics.f1,
            ]
        )
    print(
        format_table(
            "Detection quality (HAO1)",
            ["ADM", "Accuracy", "Precision", "Recall", "F1"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
