"""The three benchmark workloads: inputs from a seed, one operation, its check.

Every workload is a closed loop with one operation in flight.  An operation
goes from its inputs to a checked result; the acceptance gates of the test
suite serve as the tolerances.  `inputs(seed)` builds the measured inputs and
`warm_inputs(seed)` a small configuration on the same code path, run once
during set-up so that lazy imports and first-call costs are paid before
timing starts.
"""

import math
import os

import numpy as np

from kpplab import cli, coeff, fronts


class TakeoverFront:
    """cmd_takeover on the constant path with the criterion-01 settings.

    One large solve (5001 nodes, 20000 steps) with a front advancing into
    u = 0, so the diffusion solve and the subnormal tail ahead of the front
    dominate.  The seed moves the Heaviside step right by under one unit,
    which changes neither the grid nor the step count.  By the comparison
    principle the solution then lies above the criterion-01 run, whose
    take-over check at h = 0.2 passes with little room (inner inf 0.9916
    against 0.99); a step moved left by half a unit already fails it.
    """

    name = "takeover-front"

    @staticmethod
    def _cfg(seed, x_lo, x_hi, t_end, fit_window):
        rng = np.random.default_rng(seed)
        return {
            "path_kind": "constant", "path_value": 1.0,
            "x_lo": x_lo, "x_hi": x_hi, "dx": 0.1, "dt": 0.005,
            "t_end": t_end, "stride_time": 0.5,
            "u0_kind": "heaviside", "u0_x0": float(rng.uniform(0.0, 1.0)),
            "fit_window": fit_window, "h": 0.2, "label": "takeover",
        }

    def inputs(self, seed):
        return self._cfg(seed, -100.0, 400.0, 100.0, [40.0, 100.0])

    def warm_inputs(self, seed):
        return self._cfg(seed, -20.0, 60.0, 12.0, [2.0, 12.0])

    def op(self, inputs, out_dir):
        code, artifact = cli.cmd_takeover(dict(inputs, out_dir=out_dir))
        res = artifact["results"]
        values = {"exit_code": code, "speed": res.get("speed"),
                  "takeover_passed": res.get("takeover", {}).get("passed")}
        problems = []
        if code != cli.EXIT_OK:
            problems.append("exit code %d" % code)
        if values["speed"] is None or not 1.90 <= values["speed"] <= 2.00:
            problems.append("speed %r outside [1.90, 2.00]" % values["speed"])
        if values["takeover_passed"] is not True:
            problems.append("take-over check did not pass")
        return values, problems


class FanoutNoise:
    """subadditivity_check on a noise-equilibrium path built from the seed.

    The criterion-08 noise path with a shortened pair axis and the doubling
    check on: many mid-sized solves through the thread pool, on a grid sized
    for twice the horizon.  The operation includes building the path.  The
    pool gets at most nproc workers.
    """

    name = "fanout-noise"

    @staticmethod
    def _cfg(seed, times):
        return {"seed": int(seed), "times": times,
                "n_jobs": min(nproc(), len(times))}

    def inputs(self, seed):
        return self._cfg(seed, [5.0, 10.0, 20.0])

    def warm_inputs(self, seed):
        return self._cfg(seed, [2.0, 4.0])

    def op(self, inputs, out_dir):
        noise = coeff.make_noise(inputs["seed"], kappa=1.0, sigma=0.5,
                                 xi_max=0.5, dt=1e-3, t_lo=-120.0, t_hi=100.0)
        path = coeff.equilibrium_path(noise, 0.0, 100.0)
        rep = fronts.subadditivity_check(path, inputs["times"],
                                         check_doubling=True,
                                         n_jobs=inputs["n_jobs"])
        values = {"m_hat": rep.m_hat, "doubling_change": rep.doubling_change}
        problems = []
        if not (math.isfinite(rep.m_hat) and rep.m_hat <= 10.0):
            problems.append("m_hat %r not finite and <= 10" % rep.m_hat)
        if not abs(rep.doubling_change) < 0.20:
            problems.append("doubling change %r not below 0.20"
                            % rep.doubling_change)
        return values, problems


class VerifyDense:
    """cmd_stability (criterion 05) and cmd_certify (criterion 06).

    Small grids where u stays away from 0, so no subnormals; the fixed cost
    of each step is a large share of it.  Both commands store a frame every
    0.05 time units and the verifiers read all of them back.  The seed moves
    the stability grid (the phase of the initial sine) and the certify grid
    to the right by under ten units; node and step counts stay fixed.
    """

    name = "verify-dense"

    @staticmethod
    def _cfgs(seed, t_stab, t_cert):
        rng = np.random.default_rng(seed)
        phase = float(rng.uniform(0.0, 25.0))
        offset = float(rng.uniform(0.0, 10.0))
        stability = {
            "path_kind": "two-level", "x_lo": phase, "x_hi": phase + 50.0,
            "dx": 0.05, "dt": 0.001, "t_end": t_stab, "stride_time": 0.05,
            "margin": 0.0, "u0_inf": 0.5, "u0_sup": 2.0,
            "u0_wavelength": 25.0, "label": "stability",
        }
        certify = {
            "path_kind": "constant", "path_value": 1.0,
            "x_lo": -60.0 + offset, "x_hi": 140.0 + offset, "dx": 0.1,
            "dt": 0.005, "t_end": t_cert, "stride_time": 0.05,
            "mu": 0.8, "mu_tilde": 1.0, "span": [0.0, t_cert],
            "label": "certify",
        }
        return {"stability": stability, "certify": certify}

    def inputs(self, seed):
        return self._cfgs(seed, 20.0, 40.0)

    def warm_inputs(self, seed):
        return self._cfgs(seed, 1.0, 4.0)

    def op(self, inputs, out_dir):
        code_s, art_s = cli.cmd_stability(dict(inputs["stability"],
                                               out_dir=out_dir))
        code_c, art_c = cli.cmd_certify(dict(inputs["certify"],
                                             out_dir=out_dir))
        res_c = art_c["results"]
        values = {
            "stability_exit": code_s, "certify_exit": code_c,
            "stability_max_violation": art_s["results"]["max_violation"],
            "above_max_violation": res_c["above"]["max_violation"],
            "below_max_violation": res_c["below"]["max_violation"],
        }
        problems = []
        if code_s != cli.EXIT_OK:
            problems.append("stability exit code %d" % code_s)
        if code_c != cli.EXIT_OK:
            problems.append("certify exit code %d" % code_c)
        return values, problems


WORKLOADS = {w.name: w for w in (TakeoverFront(), FanoutNoise(), VerifyDense())}


def nproc():
    """Processors this process may run on."""
    return len(os.sched_getaffinity(0))
