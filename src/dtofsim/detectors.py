"""Detector selection: exactly one of an APD or a SiPM variant."""

from __future__ import annotations

from typing import Union

from . import apd, sipm
from .errors import check_domains, domains, record

SIPM_SNR_MODES = ("analytic", "approx", "monte_carlo")


@record
class ApdChoice:
    """APD detector option."""

    params: apd.ApdParams
    label: str = "apd"


@record
class SipmChoice:
    """SiPM detector option with a selectable SNR evaluation mode."""

    params: sipm.SipmParams
    snr_mode: str = "analytic"
    mc: sipm.SipmMcConfig | None = None
    label: str = "sipm"

    _DOMAINS = domains(snr_mode=SIPM_SNR_MODES)
    __post_init__ = check_domains

    def mc_config(self) -> sipm.SipmMcConfig:
        if self.mc is not None:
            return self.mc
        return sipm.SipmMcConfig.for_dead_time(self.params.dead_time_s)


DetectorChoice = Union[ApdChoice, SipmChoice]
