"""Record every CLI output of one checkout, for byte-identity checks between two.

Usage::

    python tools/golden.py SRC OUT

SRC is a checkout of this repository; its `src/` is imported (never an
installed copy).  OUT must not exist yet.  The script runs every command in
process through `sagnac_wva.cli.cli_main` over a fixed scenario matrix:
swm/bwm/both x paper_literal off/on x grids of 1001/4001/16001 nodes, each
once with the README parameters and once with seeded random ones (width
reading, bias order 0-2, grid half-width), plus edge scenarios that take
the refusal and overflow paths and one for each refusal of the config or
its grid that an override of the README scenario can express.  Per
scenario it runs `spectrum` for both schemes, `compare`, analytic and
numeric `sweep`s (a numeric one up to 1e308 rad/s, where `4*Omega`
overflows, and an analytic one over every decade from 5e-324 to the
largest double; on the README scenario at 1001 nodes of each scheme, also
an analytic one of 20001 rates, whose 2- and 3-column tables span several
CSV chunks), a 10-rate numeric ladder `sweep` per scheme, analytic and
numeric `estimate`s per scheme (numeric ones also on an interior ladder
sample and on a 2-point ladder), `figure3` and three usage errors (one a
`sweep` of 10**30 rates, more than any machine could allocate).  The
estimates' observations are three fixed shifts plus, where the ladder
succeeded, its values frozen in `LADDER_OBSERVATIONS`, so that a checkout
whose ladders differ still runs the same estimate argvs.  A last
directory, `one-off/`, holds single
commands for the refusals no scenario reaches: unreadable or malformed
scenario files, single-scheme commands on a `both` scenario, refused flag
values, an overflowing closed-form estimate, a calibration ladder from a
subnormal rate, the numeric estimates of ROADMAP standing defect 1 and two
on ladders that end just below and just past a turning point of the
curve (on the README scenario and its default 4001-node grid), output paths that
cannot be written and the front end's parse routes (no arguments, help,
version, an unknown command, a leftover token, an abbreviated or an
ambiguous float flag).

For every command it writes the files the command wrote plus a `.run` file
with the exit code, stdout and stderr.  The `compare` record's `timestamp`
is masked, and warnings (numpy's or Python's) that escape the command are
recorded as `warning:` lines without the file and line they came from, so
two checkouts of equal behaviour give identical trees.  Compare two checkouts with::

    python tools/golden.py PARENT_CHECKOUT /tmp/golden-parent
    python tools/golden.py .              /tmp/golden-change
    diff -r /tmp/golden-parent /tmp/golden-change

Needs only the package's own dependencies.  The full matrix runs about
2110 commands, writes about 128 MB and takes 6-13 s on one core.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import sys
import warnings
from pathlib import Path

README = {
    "lambda0_nm": 833.0,
    "fwhm_nm": 20.0,
    "area_m2": 1000.0,
    "phi_rad": 1e-4,
    "omega_rad_per_s": 1e-9,
}

#: scenarios that take refusal and overflow paths: (name, overrides)
EDGES = [
    ("edge-huge-rate", {"omega_rad_per_s": 1e300, "scheme": "both"}),
    ("edge-tiny-phi", {"phi_rad": 1e-307, "scheme": "swm"}),
    # a valid phi so small that the closed form's 1/tan(phi) overflows
    ("edge-subnormal-phi", {"phi_rad": 1e-310, "scheme": "both"}),
    ("edge-underflow-literal", {"area_m2": 1e-140, "scheme": "bwm", "paper_literal": True}),
    ("edge-tiny-area-literal", {"area_m2": 1e-160, "scheme": "bwm", "paper_literal": True}),
    ("edge-wide-phi", {"phi_rad": 1.5, "scheme": "both", "bias_order_m": 2}),
    ("edge-inf-coupling", {"area_m2": 1e10, "omega_rad_per_s": 1e300, "scheme": "both"}),
    # both closed-form shifts underflow to 0 or both overflow, so figure3's
    # ratio of them is nan
    ("edge-subnormal-area", {"area_m2": 1e-310, "scheme": "both"}),
    ("edge-overflowing-shifts", {"area_m2": 1e30, "phi_rad": 1e-300, "scheme": "both"}),
    # scenario values the config must refuse: an integer no float holds, a
    # wavelength that underflows to 0 m, a line too narrow for the grid to
    # resolve and a node count no machine could allocate
    ("edge-huge-integer", {"area_m2": 10**400, "scheme": "both"}),
    ("edge-subnormal-lambda", {"lambda0_nm": 1e-320, "scheme": "both"}),
    ("edge-narrow-line", {"fwhm_nm": 1e-12, "scheme": "both"}),
    ("edge-huge-grid", {"grid": {"points": 10**300 + 1}, "scheme": "both"}),
    # a line wide enough for the probe's wide-line warning
    # (sigma_lambda/lambda0 = 0.26), and one whose 6-sigma grid reaches p <= 0
    ("edge-wide-line", {"fwhm_nm": 500.0, "grid": {"points": 1001, "half_width_sigmas": 3.0},
                        "scheme": "both"}),
    ("edge-grid-below-zero", {"fwhm_nm": 353.0, "scheme": "both"}),
    # a valid line so short that p0^2 overflows a double (p0 ~ 6.3e159 1/m)
    ("edge-tiny-lambda", {"lambda0_nm": 1e-150, "fwhm_nm": 1e-152, "scheme": "both"}),
    # a line short enough that the grid aliases the law's fringes while the
    # exact-Gaussian reference stays finite (ROADMAP standing defect 1.3)
    ("edge-aliased-lambda", {"lambda0_nm": 1e-140, "fwhm_nm": 1e-142, "scheme": "both"}),
    # one scenario per remaining config or grid refusal, so that byte identity
    # covers every refusal message
    ("edge-phi-above-range", {"phi_rad": 2.0, "scheme": "bwm"}),
    ("edge-string-omega", {"omega_rad_per_s": "fast", "scheme": "bwm"}),
    ("edge-unknown-scheme", {"scheme": "sagnac"}),
    ("edge-fractional-bias-order", {"bias_order_m": 1.5, "scheme": "bwm"}),
    ("edge-unknown-width-reading", {"delta_lambda_means": "hwhm", "scheme": "bwm"}),
    ("edge-string-paper-literal", {"paper_literal": "yes", "scheme": "bwm"}),
    ("edge-even-grid", {"grid": {"points": 1000}, "scheme": "bwm"}),
    ("edge-fractional-grid", {"grid": {"points": 4001.5}, "scheme": "bwm"}),
    ("edge-narrow-grid", {"grid": {"points": 1001, "half_width_sigmas": 2}, "scheme": "bwm"}),
    ("edge-wide-grid", {"grid": {"points": 1001, "half_width_sigmas": 20}, "scheme": "bwm"}),
    ("edge-string-grid-width", {"grid": {"points": 1001, "half_width_sigmas": "wide"},
                                "scheme": "bwm"}),
    ("edge-unknown-grid-key", {"grid": {"points": 1001, "nodes": 1001}, "scheme": "bwm"}),
    ("edge-grid-not-object", {"grid": [1001], "scheme": "bwm"}),
    ("edge-unknown-key", {"omega": 1e-9, "scheme": "bwm"}),
    # a bias order whose delay overflows, so the bwm spectrum is not finite,
    # and a line so narrow that sigma_p underflows to 0
    ("edge-huge-bias-order", {"bias_order_m": 10**308, "scheme": "both"}),
    ("edge-underflowing-sigma", {"fwhm_nm": 1e-320, "scheme": "both"}),
]

#: the directory of ONE_OFFS, beside the scenario directories
ONE_OFF_DIR = "one-off"

#: single commands for the refusals no scenario matrix entry reaches:
#: (name, argv), run in a directory that `record_one_offs` fills with the
#: files they name
ONE_OFFS = [
    # scenario input: a missing file, invalid JSON, a non-object scenario, a
    # missing required key and a directory
    ("scenario-missing", ["compare", "--config", "missing.json", "--out", "x.json"]),
    ("scenario-invalid-json", ["compare", "--config", "invalid.json", "--out", "x.json"]),
    ("scenario-not-object", ["compare", "--config", "list.json", "--out", "x.json"]),
    ("scenario-missing-key", ["compare", "--config", "no-area.json", "--out", "x.json"]),
    ("scenario-directory", ["compare", "--config", "folder", "--out", "x.json"]),
    # single-scheme commands on a `both` scenario
    ("spectrum-without-scheme", ["spectrum", "--config", "both.json", "--out", "x.csv"]),
    ("estimate-both", ["estimate", "--config", "both.json", "--delta-lambda-m", "1e-9",
                       "--method", "analytic"]),
    ("estimate-both-numeric", ["estimate", "--config", "both.json", "--delta-lambda-m", "1e-9",
                               "--method", "numeric"]),
    # flag values the commands refuse
    ("delta-lambda-nan", ["estimate", "--config", "swm.json", "--delta-lambda-m", "nan",
                          "--method", "numeric"]),
    ("delta-lambda-text", ["estimate", "--config", "swm.json", "--delta-lambda-m", "abc",
                           "--method", "numeric"]),
    ("omega-max-inf", ["sweep", "--config", "swm.json", "--omega-min", "1e-10", "--omega-max",
                       "inf", "--points", "5", "--mode", "numeric", "--out", "x.csv"]),
    ("points-1", ["estimate", "--config", "swm.json", "--delta-lambda-m", "1e-13",
                  "--method", "numeric", "--points", "1"]),
    ("omega-min-0", ["sweep", "--config", "swm.json", "--omega-min", "0", "--omega-max", "1e-8",
                     "--points", "5", "--mode", "analytic", "--out", "x.csv"]),
    # an observation whose closed-form rate overflows
    ("estimate-swm-analytic-huge", ["estimate", "--config", "swm.json", "--delta-lambda-m",
                                    "1e308", "--method", "analytic"]),
    # a ladder from the smallest subnormal rate: its one interval spans over
    # 300 decades, and BISECTION_REL_TOL times its lower end underflows to 0;
    # the seeded block still lands on the root
    ("estimate-swm-subnormal-ladder", ["estimate", "--config", "swm.json", "--delta-lambda-m",
                                       "-1e-12", "--method", "numeric", "--omega-min",
                                       "5e-324", "--omega-max", "1e-8", "--points", "2"]),
    # ROADMAP standing defect 1 on the README scenario: the 3 log-spaced
    # samples are monotone, the curve turns between them, and the estimate
    # of each scheme's shift at 4.06e-2 rad/s is refused
    *[(f"estimate-{scheme}-turning-between-samples",
       ["estimate", "--config", f"readme-{scheme}.json", "--delta-lambda-m", observed,
        "--method", "numeric", "--omega-min", "6.2e-3", "--omega-max", "0.19", "--points", "3"])
      for scheme, observed in (("swm", "-5.105890607060714e-10"),
                               ("bwm", "-5.106839577107428e-10"))],
    # the bwm shift at 5e-9 rad/s on the README scenario, on a ladder that
    # ends just below the k = 0 turning point of the curve (1.0029e-8 rad/s),
    # which is inverted, and on one that crosses it, which is refused
    *[(f"estimate-bwm-{name}-turning-point",
       ["estimate", "--config", "readme-bwm.json", "--delta-lambda-m", "6.7620148795770035e-09",
        "--method", "numeric", "--omega-max", omega_max])
      for name, omega_max in (("below", "9.9e-9"), ("across", "1.05e-8"))],
    # output I/O failures: a missing directory, and a file where figure3's
    # directory should go
    ("spectrum-missing-directory", ["spectrum", "--config", "swm.json", "--out",
                                    "missing/x.csv"]),
    ("figure3-onto-a-file", ["figure3", "--config", "both.json", "--out", "taken"]),
    # the front end: argvs the top-level parser takes (none, help, version, an
    # unknown command) and command argvs with a help flag, a leftover token,
    # a top-level flag after the command, an abbreviated float flag with a
    # negative value as its own token and an ambiguous float flag prefix
    ("front-no-arguments", []),
    ("front-version", ["--version"]),
    ("front-help", ["--help"]),
    ("front-estimate-help", ["estimate", "--help"]),
    ("front-unknown-command", ["frobnicate", "--config", "swm.json"]),
    ("front-leftover-token", ["estimate", "--config", "swm.json", "--delta-lambda-m", "1e-13",
                              "--method", "analytic", "extra"]),
    ("front-version-after-command", ["compare", "--config", "swm.json", "--out", "x.json",
                                     "--version"]),
    ("front-abbreviated-negative-value", ["estimate", "--config", "swm.json", "--delta",
                                          "-1.2e-09", "--method", "analytic"]),
    ("front-ambiguous-float-flag", ["estimate", "--config", "swm.json", "--delta-lambda-m",
                                    "1e-13", "--method", "numeric", "--omega", "1e-10"]),
]

#: scenarios that also get a long analytic sweep: one per scheme setting
LONG_SWEEP = {f"{scheme}-full-1001-readme" for scheme in ("swm", "bwm", "both")}

#: the observations the numeric estimates of each (scenario, scheme) take from
#: that scheme's 10-point numeric ladder on the estimator's default bracket,
#: frozen as that ladder wrote them at commit 93c69d6: (midpoint of samples
#: 3 and 4, sample 0, sample 9, sample 4), in m.  A scenario whose ladder
#: was refused there has none
LADDER_OBSERVATIONS = {
    ("swm-full-1001-readme", "swm"): (
        -1.0785865802001201e-13, -1.742849784684823e-14,
        -1.7256579938121145e-12, -1.3485102946158858e-13),
    ("swm-full-1001-random", "swm"): (
        -6.594744226931509e-13, -1.0653358202522145e-13,
        -1.059817775344418e-11, -8.245584439475275e-13),
    ("swm-full-4001-readme", "swm"): (
        -1.0785865822571482e-13, -1.742849784684823e-14,
        -1.7256579939149658e-12, -1.348510297701428e-13),
    ("swm-full-4001-random", "swm"): (
        -1.0491270055548703e-13, -1.6944295662472345e-14,
        -1.692057620929671e-12, -1.3118100291965638e-13),
    ("swm-full-16001-readme", "swm"): (
        -1.07858658020012e-13, -1.7428497641145404e-14,
        -1.7256579936064117e-12, -1.3485102956443999e-13),
    ("swm-full-16001-random", "swm"): (
        -1.2511564777158705e-15, -2.0205653585134902e-16,
        -2.0205217180615936e-14, -1.56444935434577e-15),
    ("swm-literal-1001-readme", "swm"): (
        -1.0785865802001201e-13, -1.742849784684823e-14,
        -1.7256579938121145e-12, -1.3485102946158858e-13),
    ("swm-literal-1001-random", "swm"): (
        -4.4394114801007516e-16, -7.169460097341935e-17,
        -7.169394971003549e-15, -5.551052780433998e-16),
    ("swm-literal-4001-readme", "swm"): (
        -1.0785865822571482e-13, -1.742849784684823e-14,
        -1.7256579939149658e-12, -1.348510297701428e-13),
    ("swm-literal-4001-random", "swm"): (
        -4.335401853936194e-14, -7.06804181510985e-15,
        -6.047540162298437e-13, -5.410347443850112e-14),
    ("swm-literal-16001-readme", "swm"): (
        -1.07858658020012e-13, -1.7428497641145404e-14,
        -1.7256579936064117e-12, -1.3485102956443999e-13),
    ("swm-literal-16001-random", "swm"): (
        -2.1931674400874045e-11, -3.816177311350089e-12,
        -1.6024745734054185e-10, -2.7006662313434704e-11),
    ("bwm-full-1001-readme", "bwm"): (
        1.0343105235574695e-09, 1.6766813842209271e-10,
        8.493181938012839e-09, 1.2916457166249053e-09),
    ("bwm-full-1001-random", "bwm"): (
        5.872607215591223e-15, 9.484008190490345e-16,
        9.48401337609163e-14, 7.34312593646651e-15),
    ("bwm-full-4001-readme", "bwm"): (
        1.0343105235575208e-09, 1.6766813842219557e-10,
        8.493181938127313e-09, 1.291645716625111e-09),
    ("bwm-full-4001-random", "bwm"): (
        1.9838578705516489e-10, 3.2101946588675804e-11,
        2.2011608659222277e-09, 2.479017900321974e-10),
    ("bwm-full-16001-readme", "bwm"): (
        1.034310523557675e-09, 1.676681384225041e-10,
        8.493181938134717e-09, 1.2916457166253165e-09),
    ("bwm-full-16001-random", "bwm"): (
        -6.453775604825802e-18, -1.0421878966037317e-18,
        -1.0422910835241875e-16, -8.0698463681841e-18),
    ("bwm-literal-1001-readme", "bwm"): (
        -1.7317466659624993e-10, -1.7317466659614708e-10,
        -1.7317466659583854e-10, -1.7317466659624993e-10),
    ("bwm-literal-1001-random", "bwm"): (
        -9.731113092908783e-11, -9.731113092901644e-11,
        -9.731113092901644e-11, -9.731113092915924e-11),
    ("bwm-literal-4001-readme", "bwm"): (
        -1.731746666009811e-10, -1.7317466660067256e-10,
        -1.7317466660067256e-10, -1.7317466660087824e-10),
    ("bwm-literal-4001-random", "bwm"): (
        -2.0021993321681977e-10, -2.0021993321681977e-10,
        -2.0021993321651185e-10, -2.0021993321681977e-10),
    ("bwm-literal-16001-readme", "bwm"): (
        -1.731746666010325e-10, -1.7317466660108395e-10,
        -1.731746666009811e-10, -1.731746666009811e-10),
    ("bwm-literal-16001-random", "bwm"): (
        -6.399393566500357e-10, -6.399393566501031e-10,
        -6.399393566501031e-10, -6.399393566501031e-10),
    ("both-full-1001-readme", "swm"): (
        -1.0785865802001201e-13, -1.742849784684823e-14,
        -1.7256579938121145e-12, -1.3485102946158858e-13),
    ("both-full-1001-readme", "bwm"): (
        1.0343105235574695e-09, 1.6766813842209271e-10,
        8.493181938012839e-09, 1.2916457166249053e-09),
    ("both-full-1001-random", "swm"): (
        -2.101793134792704e-11, -4.175806471456739e-12,
        -8.119310414753118e-11, -2.521658331727736e-11),
    ("both-full-1001-random", "bwm"): (
        -1.5586602727599255e-13, -2.5171705869756014e-14,
        -2.517166067382188e-12, -1.948953534863219e-13),
    ("both-full-4001-readme", "swm"): (
        -1.0785865822571482e-13, -1.742849784684823e-14,
        -1.7256579939149658e-12, -1.348510297701428e-13),
    ("both-full-4001-readme", "bwm"): (
        1.0343105235575208e-09, 1.6766813842219557e-10,
        8.493181938127313e-09, 1.291645716625111e-09),
    ("both-full-4001-random", "swm"): (
        -2.0885186585233378e-17, -3.372699570896509e-18,
        -3.3728638719496367e-16, -2.6114811483742583e-17),
    ("both-full-4001-random", "bwm"): (
        1.8213182569458473e-13, 2.9413514776404895e-14,
        2.9413578439828708e-12, 2.2773819790920106e-13),
    ("both-full-16001-readme", "swm"): (
        -1.07858658020012e-13, -1.7428497641145404e-14,
        -1.7256579936064117e-12, -1.3485102956443999e-13),
    ("both-full-16001-readme", "bwm"): (
        1.034310523557675e-09, 1.676681384225041e-10,
        8.493181938134717e-09, 1.2916457166253165e-09),
    ("both-full-16001-random", "swm"): (
        -4.160121140976146e-15, -6.718446321720358e-16,
        -6.717965993130334e-14, -5.201823781842278e-15),
    ("both-full-16001-random", "bwm"): (
        7.657507728695934e-12, 1.2366501375403148e-12,
        1.236726711697854e-10, 9.574978998746522e-12),
    ("both-literal-1001-readme", "swm"): (
        -1.0785865802001201e-13, -1.742849784684823e-14,
        -1.7256579938121145e-12, -1.3485102946158858e-13),
    ("both-literal-1001-readme", "bwm"): (
        -1.7317466659624993e-10, -1.7317466659614708e-10,
        -1.7317466659583854e-10, -1.7317466659624993e-10),
    ("both-literal-1001-random", "swm"): (
        -4.0517128477455804e-14, -6.543603631323837e-15,
        -6.539011685919674e-13, -5.0662323791539625e-14),
    ("both-literal-1001-random", "bwm"): (
        -9.217384574009991e-10, -9.217384574009991e-10,
        -9.217384574010937e-10, -9.217384574009991e-10),
    ("both-literal-4001-readme", "swm"): (
        -1.0785865822571482e-13, -1.742849784684823e-14,
        -1.7256579939149658e-12, -1.348510297701428e-13),
    ("both-literal-4001-readme", "bwm"): (
        -1.731746666009811e-10, -1.7317466660067256e-10,
        -1.7317466660067256e-10, -1.7317466660087824e-10),
    ("both-literal-4001-random", "swm"): (
        -1.0639901418243928e-15, -1.718302217727727e-16,
        -1.71825722763572e-14, -1.3304160713400954e-15),
    ("both-literal-4001-random", "bwm"): (
        -6.599219484344076e-10, -6.599219484345036e-10,
        -6.599219484342153e-10, -6.599219484345999e-10),
    ("both-literal-16001-readme", "swm"): (
        -1.07858658020012e-13, -1.7428497641145404e-14,
        -1.7256579936064117e-12, -1.3485102956443999e-13),
    ("both-literal-16001-readme", "bwm"): (
        -1.731746666010325e-10, -1.7317466660108395e-10,
        -1.731746666009811e-10, -1.731746666009811e-10),
    ("both-literal-16001-random", "swm"): (
        -7.786560024700492e-15, -1.2575113002579837e-15,
        -1.2572479889500955e-13, -9.736314524429133e-15),
    ("both-literal-16001-random", "bwm"): (
        -5.941018803451932e-10, -5.941018803452393e-10,
        -5.941018803453314e-10, -5.941018803453314e-10),
    ("edge-huge-rate", "swm"): (
        -1.0785865802001201e-13, -1.742849784684823e-14,
        -1.7256579938121145e-12, -1.3485102946158858e-13),
    ("edge-huge-rate", "bwm"): (
        1.0343105235574695e-09, 1.6766813842209271e-10,
        8.493181938012839e-09, 1.2916457166249053e-09),
    ("edge-tiny-phi", "swm"): (
        -1.7317466659624993e-10, -1.7317466659614708e-10,
        -1.7317466659583854e-10, -1.7317466659624993e-10),
    ("edge-subnormal-phi", "swm"): (
        -1.7317466659624993e-10, -1.7317466659614708e-10,
        -1.7317466659583854e-10, -1.7317466659624993e-10),
    ("edge-subnormal-phi", "bwm"): (
        -1.7317466659624993e-10, -1.7317466659614708e-10,
        -1.7317466659583854e-10, -1.7317466659624993e-10),
    ("edge-wide-phi", "swm"): (
        -7.652659419709064e-19, -1.2362739899859278e-19,
        -1.2360477168762798e-17, -9.568266995706393e-19),
    ("edge-wide-phi", "bwm"): (
        -2.165396632822573e-14, -3.4970236539853733e-15,
        -3.4970231674981875e-13, -2.7076185675526943e-14),
    ("edge-inf-coupling", "swm"): (
        -1.4846893116700016e-10, -1.724170921994526e-10,
        -2.275964715805969e-09, -1.3658782888464845e-10),
    ("edge-inf-coupling", "bwm"): (
        -1.4847660053056935e-10, -1.7241808501725582e-10,
        -2.276401028352803e-09, -1.3659762000165306e-10),
    ("edge-subnormal-area", "swm"): (
        -1.0285141347636671e-22, -1.0285141347636671e-22,
        -1.0285141347636671e-22, -1.0285141347636671e-22),
    ("edge-subnormal-area", "bwm"): (
        1.0285141347636671e-22, 1.0285141347636671e-22,
        1.0285141347636671e-22, 1.0285141347636671e-22),
    ("edge-overflowing-shifts", "swm"): (
        7.052151686835291e-11, -1.4210560159063004e-12,
        6.053911875934105e-11, 8.162897626014655e-12),
    ("edge-overflowing-shifts", "bwm"): (
        7.052151686835291e-11, -1.4210560159063004e-12,
        6.053911875934105e-11, 8.162897626014655e-12),
    ("edge-wide-line", "swm"): (
        -6.561422951941338e-11, -1.060237075468629e-11,
        -1.0497721294958381e-09, -8.203464133018792e-11),
    ("edge-wide-line", "bwm"): (
        1.0388971584459274e-09, 1.6768445069782206e-10,
        1.690958207233822e-08, 1.2991892247692628e-09),
    ("edge-tiny-lambda", "swm"): (
        4.6478303111536235e-164, -2.227760331675912e-164,
        -6.901930055575093e-164, 2.3814361149525287e-164),
    ("edge-tiny-lambda", "bwm"): (
        4.6478303111536235e-164, -2.227760331675912e-164,
        -6.901930055575093e-164, 2.3814361149525287e-164),
    ("edge-aliased-lambda", "swm"): (
        -7.020109503611451e-155, 1.8871616682820293e-155,
        -6.156669533554004e-156, 1.5518206356983142e-155),
    ("edge-aliased-lambda", "bwm"): (
        -7.020109503611451e-155, 1.8871616682820293e-155,
        -6.156669533554004e-156, 1.5518206356983142e-155),
    ("edge-huge-bias-order", "swm"): (
        -1.0785865802001201e-13, -1.742849784684823e-14,
        -1.7256579938121145e-12, -1.3485102946158858e-13),
}

TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def scenarios():
    """(name, scenario dict) for the whole matrix, the same on every run."""
    out = []
    for scheme in ("swm", "bwm", "both"):
        for literal in (False, True):
            for points in (1001, 4001, 16001):
                stem = f"{scheme}-{'literal' if literal else 'full'}-{points}"
                base = {"scheme": scheme, "paper_literal": literal, "grid": {"points": points}}
                out.append((f"{stem}-readme", {**README, **base}))
                rng = random.Random(stem)
                out.append((
                    f"{stem}-random",
                    {
                        "lambda0_nm": rng.uniform(500.0, 1600.0),
                        "fwhm_nm": rng.uniform(1.0, 60.0),
                        "area_m2": 10.0 ** rng.uniform(-1.0, 4.0),
                        "phi_rad": 10.0 ** rng.uniform(-6.0, -0.5),
                        "omega_rad_per_s": 10.0 ** rng.uniform(-11.0, -6.0),
                        "bias_order_m": rng.randrange(3),
                        "delta_lambda_means": rng.choice(["fwhm", "sigma"]),
                        **base,
                        "grid": {"points": points, "half_width_sigmas": rng.uniform(4.0, 10.0)},
                    },
                ))
    for name, overrides in EDGES:
        out.append((name, {**README, "grid": {"points": 1001}, **overrides}))
    return out


def run(cli_main, directory: Path, name: str, argv: list) -> None:
    """Run one command in `directory` and write its outcome to `<name>.run`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = str(cli_main(argv))
            except Exception as exc:  # a traceback is an outcome to record, not to stop on
                code = f"raised {type(exc).__name__}: {exc}"
    noted = "".join(f"warning: {w.category.__name__}: {w.message}\n" for w in caught)
    (directory / f"{name}.run").write_text(
        f"argv: {' '.join(argv)}\nexit: {code}\n--- stdout\n{stdout.getvalue()}"
        f"--- stderr\n{stderr.getvalue()}{noted}",
        encoding="utf-8",
    )


def record_scenario(cli_main, directory: Path, scenario: str, raw: dict) -> None:
    """Run every command on the matrix scenario named `scenario`, whose values
    are `raw`; `directory` is the working directory."""
    (directory / "scenario.json").write_text(json.dumps(raw), encoding="utf-8")
    cfg = ["--config", "scenario.json"]
    for scheme in ("swm", "bwm"):
        run(cli_main, directory, f"spectrum-{scheme}",
            ["spectrum", *cfg, "--out", f"spectrum-{scheme}.csv", "--scheme", scheme])
    run(cli_main, directory, "compare", ["compare", *cfg, "--out", "compare.json"])
    record = directory / "compare.json"
    if record.exists():
        record.write_text(
            TIMESTAMP.sub('"timestamp": "MASKED"', record.read_text(encoding="utf-8")),
            encoding="utf-8",
        )
    # a grid that is not an object is refused, whatever the rate count
    grid = raw["grid"] if isinstance(raw["grid"], dict) else {}
    numeric_rates = "300" if grid.get("points", 0) < 16001 else "60"
    sweeps = [
        ("sweep-analytic", "1e-10", "1e-8", "2100", "analytic"),
        # every decade of the doubles: subnormal rates, both %.17g notation
        # switches and, where 4*Omega overflows, inf rows
        ("sweep-analytic-full-range", "5e-324", "1.7976931348623157e308", "4001", "analytic"),
        ("sweep-numeric", "1e-10", "1e-8", numeric_rates, "numeric"),
        ("sweep-numeric-wide", "1e-12", "1e308", "50", "numeric"),
    ]
    if scenario in LONG_SWEEP:
        sweeps.append(("sweep-analytic-long", "1e-12", "1e-4", "20001", "analytic"))
    for name, lo, hi, points, mode in sweeps:
        run(cli_main, directory, name,
            ["sweep", *cfg, "--omega-min", lo, "--omega-max", hi, "--points", points,
             "--mode", mode, "--out", f"{name}.csv"])

    # estimates need a single scheme; observations beyond the three fixed
    # ones are the frozen ladder values
    for scheme in ("swm", "bwm") if raw["scheme"] == "both" else (raw["scheme"],):
        single = f"scenario-{scheme}.json"
        (directory / single).write_text(json.dumps({**raw, "scheme": scheme}), encoding="utf-8")
        ladder = f"ladder-{scheme}.csv"
        run(cli_main, directory, f"ladder-{scheme}",
            ["sweep", "--config", single, "--omega-min", "1e-10", "--omega-max", "1e-8",
             "--points", "10", "--mode", "numeric", "--out", ladder])
        frozen = LADDER_OBSERVATIONS.get((scenario, scheme))
        observations = [1.2e-13, -1.2e-13, 2.5e-9]
        if frozen:
            observations += frozen[:3]
        for k, observed in enumerate(observations):
            for method in ("analytic", "numeric"):
                run(cli_main, directory, f"estimate-{scheme}-{method}-{k}",
                    ["estimate", "--config", single, "--delta-lambda-m", repr(observed),
                     "--method", method])
        run(cli_main, directory, f"estimate-{scheme}-3-point",
            ["estimate", "--config", single, "--delta-lambda-m", repr(observations[-1]),
             "--method", "numeric", "--points", "3"])
        if frozen:
            # an interior ladder sample, which the inversion returns without a
            # search, and a ladder of one calibration interval
            run(cli_main, directory, f"estimate-{scheme}-sample",
                ["estimate", "--config", single, "--delta-lambda-m", repr(frozen[3]),
                 "--method", "numeric"])
            run(cli_main, directory, f"estimate-{scheme}-2-point",
                ["estimate", "--config", single, "--delta-lambda-m", repr(observations[3]),
                 "--method", "numeric", "--points", "2"])

    run(cli_main, directory, "figure3", ["figure3", *cfg, "--out", "figure3"])
    run(cli_main, directory, "usage-missing-value", ["estimate", *cfg, "--method"])
    run(cli_main, directory, "usage-bad-range",
        ["sweep", *cfg, "--omega-min", "1e-8", "--omega-max", "1e-10", "--points", "5",
         "--mode", "numeric", "--out", "never.csv"])
    run(cli_main, directory, "usage-huge-points",
        ["sweep", *cfg, "--omega-min", "1e-10", "--omega-max", "1e-8", "--points", str(10**30),
         "--mode", "numeric", "--out", "never.csv"])


def record_one_offs(cli_main, directory: Path) -> None:
    """Write the files ONE_OFFS name into `directory`, the working directory,
    and run each of them."""
    scenario = {**README, "grid": {"points": 1001}}
    for name, raw in [
        ("both.json", {**scenario, "scheme": "both"}),
        ("swm.json", {**scenario, "scheme": "swm"}),
        ("readme-swm.json", {**README, "scheme": "swm"}),
        ("readme-bwm.json", {**README, "scheme": "bwm"}),
        ("list.json", [scenario]),
        ("no-area.json", {k: v for k, v in scenario.items() if k != "area_m2"}),
    ]:
        (directory / name).write_text(json.dumps(raw), encoding="utf-8")
    (directory / "invalid.json").write_text("{\"lambda0_nm\": 833.0,", encoding="utf-8")
    (directory / "folder").mkdir()
    (directory / "taken").write_text("a file, not a directory", encoding="utf-8")
    for name, argv in ONE_OFFS:
        run(cli_main, directory, name, argv)


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python tools/golden.py SRC OUT", file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    sys.path.insert(0, str(src / "src"))
    from sagnac_wva import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: imported {cli.__file__}, not the checkout at {src}", file=sys.stderr)
        return 2
    out.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        for name, raw in scenarios():
            directory = out / name
            directory.mkdir()
            # relative paths keep OUT out of every message the commands print
            os.chdir(directory)
            record_scenario(cli.cli_main, directory, name, raw)
        directory = out / ONE_OFF_DIR
        directory.mkdir()
        os.chdir(directory)
        record_one_offs(cli.cli_main, directory)
    finally:
        os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
