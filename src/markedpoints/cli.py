"""Batch command-line front end.

Subcommands: intensity, summary, markcorr, simulate, envelope, rerun.
Every run writes its artifacts plus a metadata JSON with the fully
resolved configuration and seed; `rerun <metadata.json>` replays a run.

Exit codes: 0 success, 2 usage error, 3 data validation error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .curves import default_r, r_grid
from .envelope import _STUDY, _mark_model_bands, envelopes, mark_correlation_study
from .errors import NumericalError, ValidationError
from .geometry import LinearNetwork, NetworkLocation, PlanarWindow, load_network, synthetic_tree_network
from .intensity import (
    _FAMILIES,
    KernelSpec,
    bandwidth_cvl,
    bandwidth_scott,
    intensity_heat,
    intensity_jones_diggle,
    intensity_network,
    intensity_uniform,
)
from .markcorr import (
    BEISBART_KERSCHER,
    SHIMANTANI_I,
    STOYAN,
    VARIOGRAM,
    SmoothingSpec1D,
    default_smoothing,
    mark_corr,
    mark_corr_suite,
)
from .pattern import _fmt, _moments, _write_table, load_pattern_csv, save_pattern_csv, split_by_type
from .simulate import (
    _RADIUS,
    _TREND,
    GaussianFieldSpec,
    constant_field_sampler,
    cosine_field_sampler,
    lgcp_network,
    linked_balanced_cox,
    model_marks,
    poisson_network,
    poisson_planar,
    replicate_rng,
    SeedSpec,
)
from .summaries import (
    f_inhom,
    h_cross_inhom,
    j_cross_inhom,
    k_cross_inhom,
    k_dot_inhom,
    mark_weighted_k,
)
from .svgplot import curves_svg, envelope_panels_svg

_TF = {"stoyan": STOYAN, "bk": BEISBART_KERSCHER, "vario": VARIOGRAM, "shimantani": SHIMANTANI_I}


def _parse_window(text) -> PlanarWindow:
    try:
        xmin, xmax, ymin, ymax = (float(t) for t in text.split(","))
    except Exception:
        raise ValidationError(f"window must be xmin,xmax,ymin,ymax, got {text!r}") from None
    return PlanarWindow(xmin, xmax, ymin, ymax)


def _load_domain(args):
    if getattr(args, "network", None):
        return load_network(args.network)
    if getattr(args, "window", None):
        return _parse_window(args.window)
    raise ValidationError("either --window or --network is required")


def _network(args) -> LinearNetwork:
    """The --network file, else the bundled dendrite tree."""
    return load_network(args.network) if args.network else synthetic_tree_network()


def _write_metadata(args, out_dir, extra=None):
    cfg = {k: v for k, v in vars(args).items() if k not in ("func",)}
    doc = {"argv": list(args._argv), "config": cfg, "version": __version__}
    if extra:
        doc.update(extra)
    path = os.path.join(out_dir, f"{args.command}_metadata.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, default=str)
        fh.write("\n")
    return path


def _out_dir(args) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


def _pattern(args):
    """The output directory, made, and the --pattern file read on its domain."""
    out = _out_dir(args)
    return out, load_pattern_csv(args.pattern, _load_domain(args))


def _plugin_sigma(args, p) -> float:
    if args.sigma == "scott":
        sx, sy = bandwidth_scott(p)
        return float(np.sqrt(sx * sy))
    if args.sigma == "cvl":
        if args.kernel != "gaussian":  # the only kernel bandwidth_cvl searches
            raise ValidationError(f"--sigma cvl needs --kernel gaussian, got --kernel {args.kernel}")
        return bandwidth_cvl(p, (args.grid, args.grid))
    try:
        sigma = float(args.sigma)
    except ValueError:
        sigma = np.nan
    if not np.isfinite(sigma):
        raise ValidationError(f"--sigma must be a finite number, 'scott' or 'cvl', got {args.sigma!r}")
    return sigma


def _finite(text) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _three_finite(text) -> str:
    """argparse type: three comma-separated finite floats, kept as the text."""
    _base, _amplitude, _scale = map(_finite, text.split(","))
    return text


def _intensity(args, p, method):
    """Kernel intensity estimate of p by method (uniform, jd or heat), with
    the bandwidth, kernel and grid flags of the run."""
    if p.is_network:
        if method not in ("uniform", "jd"):
            raise ValidationError("network intensity supports methods uniform/jd only")
        if args.sigma == "cvl":
            raise ValidationError("cvl bandwidth selection is planar-only")
        return intensity_network(p, KernelSpec(_plugin_sigma(args, p), args.kernel))
    sigma = _plugin_sigma(args, p)
    dims = (args.grid, args.grid)
    if method == "heat":
        return intensity_heat(p, sigma, dims)
    estimate = intensity_jones_diggle if method == "jd" else intensity_uniform
    return estimate(p, KernelSpec(sigma, args.kernel), dims)


def _cmd_intensity(args):
    out, p = _pattern(args)
    est = _intensity(args, p, args.method)
    est.to_csv(os.path.join(out, "intensity.csv"))
    _write_metadata(args, out, {"resolved_sigma": est.sigma})


def _summary_r(args, domain):
    if args.rmax is not None:
        return r_grid(args.rmax, args.bins)
    return default_r(domain, args.bins)


def _type_group(groups, label, flag):
    if label not in groups:
        raise ValidationError(f"{flag} must name one of {sorted(groups)}")
    return groups[label]


def _cmd_summary(args):
    out, p = _pattern(args)
    r = _summary_r(args, p.domain)

    def lam_for(sub):
        if args.lambda_const is not None:
            return float(args.lambda_const)
        return _intensity(args, sub, args.intensity_method)

    if args.stat in ("kcross", "kdot", "hcross", "jcross"):
        groups = split_by_type(p)
        pi = _type_group(groups, args.type_i, "--type-i")
        if args.stat == "kdot":
            pj = p.subset([k for k, lab in enumerate(p.labels()) if lab != args.type_i])
        else:
            pj = _type_group(groups, args.type_j, "--type-j")
        li, lj = lam_for(pi), lam_for(pj)
        if args.stat == "kcross":
            curve = k_cross_inhom(pi, pj, li, lj, args.ec, r)
        elif args.stat == "kdot":
            curve = k_dot_inhom(pi, pj, li, lj, args.ec, r)
        elif args.stat == "hcross":
            curve = h_cross_inhom(pi, pj, li, lj, r=r)
        else:
            h = h_cross_inhom(pi, pj, li, lj, r=r)
            f = f_inhom(pj, lj, grid_spacing=args.grid_spacing, r=r)
            curve = j_cross_inhom(h, f)
    elif args.stat == "f":
        pj = _type_group(split_by_type(p), args.type_j, "--type-j") if args.type_j else p
        curve = f_inhom(pj, lam_for(pj), grid_spacing=args.grid_spacing, r=r)
    else:  # kweighted
        curve = mark_weighted_k(p, _TF[args.tf], lam_for(p), args.ec, r)
    if args.lambda_const is not None:
        curve.meta.update(intensity="constant", lam=args.lambda_const)
    else:
        curve.meta.update(intensity=args.intensity_method, sigma=args.sigma)
    curve.to_csv(os.path.join(out, f"{args.stat}.csv"))
    _write_metadata(args, out)


def _cmd_markcorr(args):
    out, p = _pattern(args)
    r = _summary_r(args, p.domain)
    smoothing = (
        SmoothingSpec1D(args.bandwidth, args.smoothing_kernel)
        if args.bandwidth is not None
        else default_smoothing(p)
    )
    if args.tf == "suite":
        suite = mark_corr_suite(p, smoothing, r, args.ec)
        curves, raws, stem, title = suite.curves, {}, "suite", "mark correlation functions"
        names = sorted(curves)
        cols = [r] + [curves[n].values for n in names] + [suite.numerators[n].values for n in names]
        header = ["r"] + names + [f"raw_{n}" for n in names]
        _write_table(os.path.join(out, "markcorr_suite.csv"), header, map(_fmt, cols))
    else:
        tf = _TF[args.tf]
        curve, numer = mark_corr(p, tf, smoothing, r, args.ec, return_numerator=True)
        curves, raws, stem, title = {tf.name: curve}, {tf.name: numer}, tf.name, f"mark correlation: {tf.name}"
    for name, curve in curves.items():
        curve.to_csv(os.path.join(out, f"markcorr_{name}.csv"))
    for name, numer in raws.items():
        numer.to_csv(os.path.join(out, f"markcorr_raw_{name}.csv"))
    curves_svg(os.path.join(out, f"markcorr_{stem}.svg"), [(n, curves[n]) for n in sorted(curves)], title=title)
    _write_metadata(args, out, {"resolved_bandwidth": smoothing.bandwidth})


def _simulate_pattern(args, rng):
    model = args.model
    if model in ("modelI", "modelII", "modelIII"):
        net = _network(args)
        lam = args.rate if args.rate is not None else args.n_expected / net.total_length
        p = poisson_network(lam, net, rng)
        kind = model[5:]
        p = model_marks(kind, p, rng, a=args.a, b=args.b, tau=args.tau, radius=args.radius)
        if p.n:
            _moments(p.marks())  # refuses marks that no mark statistic could analyse
        return p, net
    if model == "poisson":
        domain = _load_domain(args)
        if args.rate is None:
            raise ValidationError("--rate is required for poisson simulation")
        simulate = poisson_network if isinstance(domain, LinearNetwork) else poisson_planar
        return simulate(args.rate, domain, rng), domain
    if model == "lgcp":
        net = _network(args)
        var = args.lgcp_var
        mu = args.lgcp_mu
        if mu is None:
            if not args.n_expected > 0:
                raise ValidationError(f"--n-expected must be positive for an lgcp model, got {args.n_expected}")
            # mean count matches --n-expected: E exp(Z) = exp(mu + var/2)
            mu = float(np.log(args.n_expected / net.total_length) - var / 2.0)

        def const_cov(d1, d2):
            shape = np.broadcast_shapes(np.shape(d1), np.shape(d2))
            return np.full(shape, var) if shape else var

        spec = GaussianFieldSpec(mean=mu, cov=const_cov, anchor=NetworkLocation(0, 0.5))
        return lgcp_network(spec, net, args.lgcp_step, rng), net
    # linked or balanced
    domain = _load_domain(args)
    if args.base_cosine is not None:
        base, amp, scale = (float(t) for t in args.base_cosine.split(","))
        sampler = cosine_field_sampler(base, amp, scale)
    else:
        sampler = constant_field_sampler(args.base_const)
    return linked_balanced_cox(model, args.nu, sampler, domain, rng), domain


def _cmd_simulate(args):
    out = _out_dir(args)
    rng = replicate_rng(SeedSpec(args.seed, 0))
    p, _ = _simulate_pattern(args, rng)
    save_pattern_csv(p, os.path.join(out, "pattern.csv"))
    _write_metadata(args, out, {"n_points": p.n})


def _cmd_envelope(args):
    out = _out_dir(args)
    if args.model in ("modelI", "modelII", "modelIII"):
        net = _network(args)
        kind = args.model[5:]
        run = dict(
            nsim=args.nsim, level=args.level, master_seed=args.seed, n_expected=args.n_expected,
            r_max=_STUDY["r_max"] if args.rmax is None else args.rmax, bins=args.bins,
            bandwidth=_STUDY["bandwidth"] if args.bandwidth is None else args.bandwidth, radius=args.radius,
        )
        if args.stat == "suite":
            # the model I trend flags: the suite study fixes its own trend
            set_flags = [f"--{flag}" for flag, default in _TREND.items() if getattr(args, flag) != default]
            if set_flags:
                raise ValidationError(
                    f"{', '.join(set_flags)} cannot be used with --stat suite: the study uses its own trend"
                )
            bands = mark_correlation_study(net, kind, out, **run)
            _write_metadata(args, out, {"k": next(iter(bands.values())).k})
            return
        tf = _TF[args.stat]
        (band,) = _mark_model_bands(net, kind, (tf,), a=args.a, b=args.b, tau=args.tau, **run)
        band.to_csv(os.path.join(out, f"{args.model}_{tf.name}_band.csv"))
        envelope_panels_svg(
            os.path.join(out, f"{args.model}_{tf.name}_band.svg"),
            [(tf.name, band)],
            title=f"{args.model}: {tf.name} envelope",
        )
        _write_metadata(args, out, {"k": band.k})
        return
    # poisson
    domain = _load_domain(args)
    if args.rate is None:
        raise ValidationError("--rate is required for poisson envelopes")
    if isinstance(domain, LinearNetwork):
        raise ValidationError("poisson envelopes are planar-only in the CLI")
    r = _summary_r(args, domain)

    def gen(rng):
        return poisson_planar(args.rate, domain, rng)

    def stat(p):
        lab = ["i"] * p.n
        pi = p.with_labels(lab)
        return k_cross_inhom(pi, pi, args.rate, args.rate, "translation", r)

    band = envelopes(gen, stat, args.nsim, args.level, args.seed)
    band.to_csv(os.path.join(out, "poisson_k_band.csv"))
    _write_metadata(args, out, {"k": band.k})


def _cmd_rerun(args):
    path = args.metadata
    try:
        with open(path) as fh:
            argv = json.load(fh)["argv"]
    except (ValueError, TypeError, KeyError) as e:
        raise ValidationError(f"metadata file {path} is not a JSON object with an argv record: {e!r}") from None
    # a rerun writes no metadata, so a record that replays one is not a run's
    if not (isinstance(argv, list) and argv and all(isinstance(a, str) for a in argv) and argv[0] != "rerun"):
        raise ValidationError(f"metadata file {path} has no argv record of a run (a list of strings)")
    rc = main(argv)
    if rc != 0:
        raise ValidationError(f"rerun of {path} failed with exit code {rc}")


def _add_common(sp):
    sp.add_argument("--out-dir", default=".", help="output directory")
    sp.add_argument("--seed", type=int, default=0, help="master seed")
    sp.add_argument("--window", help="planar window as xmin,xmax,ymin,ymax")
    sp.add_argument("--network", help="network JSON file")


def _add_mark_model(sp):
    for flag, default in _TREND.items():
        sp.add_argument(f"--{flag}", type=_finite, default=default)
    sp.add_argument("--radius", type=_finite, default=_RADIUS)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="markedpoints",
        description="Summary statistics, simulators and Monte Carlo envelopes "
        "for marked point patterns on windows and linear networks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("intensity", help="kernel intensity estimation")
    _add_common(sp)
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--method", choices=["uniform", "jd", "heat"], default="uniform")
    sp.add_argument("--sigma", default="scott", help="bandwidth value, 'scott' or 'cvl'")
    sp.add_argument("--kernel", choices=_FAMILIES, default="gaussian")
    sp.add_argument("--grid", type=int, default=128)
    sp.set_defaults(func=_cmd_intensity)

    sp = sub.add_parser("summary", help="K/H/F/J and mark-weighted K curves")
    _add_common(sp)
    sp.add_argument("--pattern", required=True)
    sp.add_argument(
        "--stat", choices=["kcross", "kdot", "hcross", "f", "jcross", "kweighted"], required=True
    )
    sp.add_argument("--type-i", dest="type_i")
    sp.add_argument("--type-j", dest="type_j")
    sp.add_argument("--ec", choices=["none", "translation"], default="none")
    sp.add_argument("--rmax", type=_finite)
    sp.add_argument("--bins", type=int, default=512)
    sp.add_argument("--sigma", default="scott")
    sp.add_argument("--kernel", choices=_FAMILIES, default="gaussian")
    sp.add_argument("--intensity-method", dest="intensity_method", choices=["uniform", "jd"], default="uniform")
    sp.add_argument("--lambda-const", dest="lambda_const", type=_finite, help="use a constant intensity instead of a plug-in estimate")
    sp.add_argument("--grid", type=int, default=128)
    sp.add_argument("--grid-spacing", dest="grid_spacing", type=_finite)
    sp.add_argument("--tf", choices=sorted(_TF), default="stoyan")
    sp.set_defaults(func=_cmd_summary)

    sp = sub.add_parser("markcorr", help="mark correlation functions")
    _add_common(sp)
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--tf", choices=sorted(_TF) + ["suite"], default="suite")
    sp.add_argument("--bandwidth", type=_finite)
    sp.add_argument("--smoothing-kernel", dest="smoothing_kernel", choices=_FAMILIES, default="epanechnikov")
    sp.add_argument("--ec", choices=["none", "symmetricWeight"], default="none")
    sp.add_argument("--rmax", type=_finite)
    sp.add_argument("--bins", type=int, default=512)
    sp.set_defaults(func=_cmd_markcorr)

    sp = sub.add_parser("simulate", help="pattern simulators")
    _add_common(sp)
    sp.add_argument(
        "--model",
        choices=["poisson", "lgcp", "linked", "balanced", "modelI", "modelII", "modelIII"],
        required=True,
    )
    sp.add_argument("--rate", type=_finite, help="poisson intensity (per area / per length)")
    sp.add_argument("--n-expected", dest="n_expected", type=_finite, default=_STUDY["n_expected"])
    sp.add_argument("--nu", type=_finite, default=100.0)
    sp.add_argument("--base-const", dest="base_const", type=_finite, default=50.0)
    sp.add_argument("--base-cosine", dest="base_cosine", type=_three_finite, help="base,amplitude,scale")
    sp.add_argument("--lgcp-mu", dest="lgcp_mu", type=_finite, default=None)
    sp.add_argument("--lgcp-var", dest="lgcp_var", type=_finite, default=0.25)
    sp.add_argument("--lgcp-step", dest="lgcp_step", type=_finite)
    _add_mark_model(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("envelope", help="Monte Carlo envelope of a statistic under a null model")
    _add_common(sp)
    sp.add_argument(
        "--model",
        choices=["poisson", "modelI", "modelII", "modelIII"],
        required=True,
    )
    sp.add_argument("--stat", choices=["suite"] + sorted(_TF), default="suite")
    sp.add_argument("--nsim", type=int, default=_STUDY["nsim"])
    sp.add_argument("--level", type=_finite, default=_STUDY["level"])
    sp.add_argument("--rate", type=_finite)
    sp.add_argument("--n-expected", dest="n_expected", type=_finite, default=_STUDY["n_expected"])
    sp.add_argument("--rmax", type=_finite)
    sp.add_argument("--bins", type=int, default=_STUDY["bins"])
    sp.add_argument("--bandwidth", type=_finite)
    _add_mark_model(sp)
    sp.set_defaults(func=_cmd_envelope)

    sp = sub.add_parser("rerun", help="replay a run from its metadata file")
    sp.add_argument("metadata")
    sp.set_defaults(func=_cmd_rerun, command="rerun")

    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    args._argv = list(argv)
    try:
        args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)  # the errno text and the file's name
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
