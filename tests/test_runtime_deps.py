"""pcac runs on numpy and the standard library alone: scipy is an oracle of
the tests, not a run-time dependency."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pcac

SRC = str(Path(pcac.__file__).resolve().parents[1])

NO_SCIPY_RUN = textwrap.dedent(
    """
    import sys
    from dataclasses import replace


    class BlockScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is blocked")
            return None


    sys.meta_path.insert(0, BlockScipy())
    try:
        import scipy  # noqa: F401
    except ImportError:
        pass
    else:
        raise SystemExit("the scipy blocker did not block")

    import pcac
    from pcac.rls import _cached_f_quantile, multivariable_dof

    # closed loop from 0.5 s: 350 steps, the F-test runs on the last 150
    spec = replace(pcac.default_spec(), t_open=0.5, t_total=0.85)
    record = pcac.run_experiment(spec)
    assert record.phase.sum() == 351 and record.fault_count == 0
    cfg = spec.controller.forgetting
    _, b, _ = multivariable_dof(2, cfg)
    quant = _cached_f_quantile(float(2 * cfg.tau_n), b, 1.0 - cfg.alpha)
    assert 1.0 < quant < 3.0, quant
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, loaded
    print("ok")
    """
)


def test_runs_without_scipy():
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ok"]


NO_NUMPY_RANDOM_RUN = textwrap.dedent(
    """
    import sys
    from dataclasses import replace


    class BlockNumpyRandom:
        def find_spec(self, name, path=None, target=None):
            if name == "numpy.random" or name.startswith("numpy.random."):
                raise ImportError(f"{name} is blocked")
            return None


    sys.meta_path.insert(0, BlockNumpyRandom())
    import pcac

    spec = replace(pcac.default_spec(), t_open=0.5, t_total=0.6)
    spec = replace(spec, plant=replace(spec.plant, noise_std=float(sys.argv[1])))
    record = pcac.run_experiment(spec)
    assert record.phase.sum() == 101 and record.fault_count == 0
    loaded = sorted(m for m in sys.modules if m.startswith("numpy.random"))
    assert not loaded, loaded
    print("ok")
    """
)


def run_blocking_numpy_random(noise_std: float):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RANDOM_RUN, str(noise_std)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_noise_free_run_does_not_load_numpy_random():
    out = run_blocking_numpy_random(0.0)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ok"]


def test_noisy_run_fails_without_numpy_random():
    # positive control: the blocker bites as soon as noise is drawn
    out = run_blocking_numpy_random(0.5)
    assert out.returncode != 0
    assert "numpy.random is blocked" in out.stderr
