"""
Detection probability versus SNR
================================

A small Monte Carlo sweep over transmit SNR comparing exhaustive search
with OMP over random and DFT codebooks, reproducing the qualitative
picture: ES is the most robust at very low SNR, the DFT codebook wins
once the SNR is moderate, and every method detects at least one correct
pair almost surely at high SNR.

The full-size run (500 trials, 13 SNR points) is what the `beamcs`
command line does; here we keep 60 trials and 5 points so the demo
finishes in about half a minute.
"""

from beamcs import ExperimentConfig, emit_csv, run_experiment

cfg = ExperimentConfig(n_trials=60, snr_db=(-30.0, -20.0, -10.0, 0.0, 10.0),
                       methods=("ES", "OMP-Random", "OMP-DFT"), master_seed=2024)

records, stats = run_experiment(cfg)

print("%8s  %-12s %8s %8s" % ("snr", "method", "p_all", "p_single"))
for (snr, method) in sorted(stats, key=lambda k: (k[0], k[1])):
    g = stats[(snr, method)]
    print("%8.1f  %-12s %8.3f %8.3f" % (snr, method, g.p_all, g.p_single))

# the same aggregates and raw error histograms go to CSV for plotting,
# under results/demo05 in the current directory
summary, errors = emit_csv(records, stats, "results/demo05")
print("\nwrote", summary)
print("wrote", errors)

with open(summary, encoding="utf-8") as f:
    for line in list(f)[:4]:
        print("  " + line.rstrip())
