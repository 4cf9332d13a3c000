"""Stored reference values of the correctness gate.

Computed with the package as it stood when the benchmark was defined
(numpy 2.4, Python 3.11).  A change that alters any of them beyond float
tolerance changes an estimator, and the benchmark then reports the run as
incorrect.
"""

#: Monte-Carlo seed of the reference table3 pass.
REFERENCE_SEED = 0

#: Analytic sigma_rho per unit gauge noise; the paper rounds them to 1.98 and 2.06.
FACTORS = {"six": 1.9843155282433684, "twelve": 2.065773686280565}
PAPER_FACTORS = {"six": 1.98, "twelve": 2.06}

#: table3 at 1000 runs x 1 replication, sigma 0.01 mm, REFERENCE_SEED:
#: (method, offset mm, pooled std mm).
TABLE3_POOLED_STD = (
    ("nonlinear-six", 0.1, 0.019938437523839867),
    ("nonlinear-six", 1.0, 0.019983018314439067),
    ("nonlinear-twelve", 0.1, 0.020743674681368438),
    ("nonlinear-twelve", 1.0, 0.020781894223501664),
)

#: ``orthocal calibrate <fixture> --method <method>``: offsets (mm) and sigma_rho.
FIXTURE_OFFSETS = {
    "experiment1": {
        "linear6": ((2.2716595268385316, 1.656461890747594, -1.3961694653761045), 2.132675563525605),
        "nonlinear6": ((2.2666365897032645, 1.648674630476176, -1.4145720326685824), 2.1325561759618226),
    },
    "experiment2": {
        "linear6": ((-0.522274161895535, 0.5988056197344768, -1.7598236144328623), 0.5483786495280866),
        "nonlinear6": ((-0.5266137888776558, 0.5919528814915097, -1.7605160345072248), 0.54814263200258),
    },
    "experiment3": {
        "linear6": ((0.06677405581060028, 0.14107218548810635, 0.0025652782755334943), 0.5759027028298354),
        "nonlinear6": ((0.06674182081137117, 0.141065522858694, 0.002513502088339748), 0.575903558597433),
    },
}
