"""Compressed-sensing beam detection for swept initial-access pilots."""

from .arrays import beam_sin_values, build_grid, steering_vector
from .channel import (N_FFT, SAMPLE_RATE, ChannelRealization, PathComponent, freq_channel,
                      sample_channel)
from .codebooks import (Codebook, designed_codebook, dft_codebook, group_columns,
                        multi_beam_dft_codebook, random_codebook, total_coherence)
from .detect import (BeamPair, DetectionOutcome, OmpResult, beam_index_errors, cs_detect,
                     exhaustive_search, omp, signed_circular_diff, true_pairs)
from .experiment import (METHODS, ExperimentConfig, emit_csv, main,
                         parse_config_file, run_experiment)
from .metrics import (GroupStats, TrialRecord, all_beam_match, detection_probability,
                      single_beam_match)
from .sweep import (SensingOperator, acquire, build_sensing_operator, pilot_response, pilots,
                    sweep_signal, transmit_vectors)

__version__ = "0.1.0"
