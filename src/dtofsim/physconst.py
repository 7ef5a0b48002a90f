"""Physical constants (2019 SI exact values) and photon arithmetic."""

ELEMENTARY_CHARGE = 1.602176634e-19  # C
PLANCK = 6.62607015e-34              # J*s
LIGHT_SPEED = 299792458.0            # m/s
BOLTZMANN = 1.380649e-23             # J/K


def photon_energy(wavelength_m: float) -> float:
    """Energy of one photon at the given vacuum wavelength, joules."""
    return PLANCK * LIGHT_SPEED / wavelength_m
