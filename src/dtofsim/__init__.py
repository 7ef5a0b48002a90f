"""Trigger-SNR and maximum-range analysis for direct time-of-flight lidars.

Compares APD and SiPM receiver designs on a common optical link: echo and
solar-background power at the detector, detector-specific noise models,
TDC threshold-trigger statistics, and the maximum detectable range where
the trigger SNR meets the threshold-to-noise ratio.
"""

from .apd import (ApdParams, NoiseBudget, excess_noise_factor, noise_sigma,
                  optimize_gain, responsivity, trigger_snr)
from .detectors import ApdChoice, DetectorChoice, SipmChoice
from .errors import (ConfigError, NoDetectionError, SipmSaturationError,
                     SolverError, UnboundedRangeError)
from .ranging import RangeResult, max_range, sensitivity, snr_at_range
from .scenario import (ScenarioConfig, load_scenario, save_scenario,
                       table1_preset)
from .scene_link import (AtmosphereModel, LaserParams, ReceiverOptics,
                         SceneGeometry, SolarModel, TargetModel,
                         effective_aperture, one_way_transmittance,
                         received_powers, sun_equivalent_irradiance)
from .sipm import (PhotonCounts, SipmMcConfig, SipmParams,
                   background_occupancy, dark_occupancy, fired_count,
                   fired_std, monte_carlo_snr, signal_fired,
                   trigger_snr_analytic, trigger_snr_approx)
from .sweeps import SweepResult, SweepSpec, emit_csv, emit_svg, run_sweep
from .tdc import (TdcPolicy, correct_detection_prob, false_alarm_prob,
                  min_detectable_signal)

__version__ = "0.1.0"
