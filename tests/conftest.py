import numpy as np
import pytest

import rangefuse as rf

# reference-power / threshold pairs used throughout; the -37.47 / -100 dBm
# combination at alpha 4 gives a pseudo range of ~36.58 m
PARAMS_44 = rf.ChannelParams(
    p_ref_dbm=-37.47, alpha=4.0, sigma_db=4.0, rss_threshold_dbm=-100.0
)
# threshold chosen so the pseudo range is exactly 10 m
PARAMS_SHARP = rf.ChannelParams(
    p_ref_dbm=-37.47, alpha=4.0, sigma_db=0.01, rss_threshold_dbm=-77.47
)
PARAMS_DISK = rf.ChannelParams(
    p_ref_dbm=-37.47, alpha=4.0, sigma_db=0.0, rss_threshold_dbm=-77.47
)
# measured-deployment calibration: alpha 2.3, sigma 3.92, -55 dBm floor
PARAMS_FIELD = rf.ChannelParams(
    p_ref_dbm=-37.47, alpha=2.3, sigma_db=3.92, rss_threshold_dbm=-55.0
)


def penalty(x1, x2, sigma_r, sigma_c, d):
    """Negative joint log-likelihood of both range estimates at d, up to a constant.

    The test-side likelihood oracle for the fusion solver: log10 of the RSS
    estimate is normal around log10(d) with scale sigma_r, the connectivity
    estimate normal around d with scale sigma_c. Arguments broadcast.
    """
    t = np.log10(x1) - np.log10(d)
    return t * t * (1.0 / (2.0 * sigma_r**2)) + (x2 - d) ** 2 * (1.0 / (2.0 * sigma_c**2))


def save_damaged_table(model, path, damage):
    """Save model to path, then make one value non-finite: 'knot', 's_mass' or 'd_th'."""
    rf.save_fd_model(model, path)
    lines = path.read_text().splitlines()
    if damage == "knot":
        k = lines.index("knots:") + 3
        lines[k] = lines[k].split(",")[0] + ", nan"
    else:
        k = next(k for k, line in enumerate(lines) if line.startswith(f"{damage} = "))
        lines[k] = f"{damage} = " + ("nan" if damage == "s_mass" else "inf")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="session")
def model44():
    return rf.build_fd_model(PARAMS_44)


@pytest.fixture(scope="session")
def model_field():
    return rf.build_fd_model(PARAMS_FIELD)


@pytest.fixture(scope="session")
def big_report(model44):
    """5000-trial, 8-probe run shared by the acceptance and trend tests."""
    fracs = np.linspace(0.1, 1.0, 8)
    cfg = rf.ExperimentConfig(
        mu=20.0,
        distances=tuple(float(f) * model44.d_th for f in fracs),
        trials=5000,
        seed=20260809,
    )
    return rf.run_experiment(cfg, model44)
