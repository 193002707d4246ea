"""Command-line verification harness.

Modes:
  forward           build a tangent conic and dump its q^2 image points
  reconstruct       run the reconstruction pipeline on a point dump
  roundtrip         forward construction + full reconstruction in one run
  lemma1            forward construction + conic incidence-property checks
  negative-control  deliberately corrupted runs that must fail (exit 1)

Exit codes: 0 all checks passed, 1 a check failed, 2 invalid config/input.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import dataclass, replace

from .bruckbose import (build_C, random_tangent_conic, verify_lemma1,
                        write_c_dump, LemmaViolation)
from .galois import check_modulus, default_modulus, is_prime
from .report import FAIL, PASS, WARN, Report, StageRecord, file_digest, witness_text
from .reconstruct import (PIPELINE, PipelineState, displace_point, make_frame,
                          perturb_spread_by_regulus, run_stages, _factor_prime_power)


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


class ParseError(ValueError):
    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class SizeMismatch(ValueError):
    pass


MAX_Q = 31  # the largest order tested; a q = 31 round trip peaks near 217 MB
MODES = ("forward", "reconstruct", "roundtrip", "lemma1", "negative-control")
CONTROLS = ("displaced-point", "perturbed-spread", "corrupted-arc")


@dataclass
class RunConfig:
    mode: str
    q: int
    p: int
    k: int
    modulus: tuple | None = None
    seed: int = 0
    in_path: str | None = None
    dump_path: str | None = None
    out_path: str | None = None
    fmt: str = "json"
    threads: int = 1
    exploratory: bool = False
    control: str | None = None
    stages: tuple | None = None

    def echo(self):
        return {
            "mode": self.mode,
            "q": self.q,
            "p": self.p,
            "k": self.k,
            "modulus": list(self.modulus) if self.modulus else None,
            "seed": self.seed,
            "input": self.in_path,
            "dump": self.dump_path,
            "format": self.fmt,
            "threads": self.threads,
            "exploratory": self.exploratory,
            "control": self.control,
            "stages": list(self.stages) if self.stages else None,
        }


def _outdir():
    return os.environ.get("PGCONICS_OUTDIR", "")


def _resolve(path):
    if path and not os.path.isabs(path) and _outdir():
        return os.path.join(_outdir(), path)
    return path


def _parse_modulus(text, p, k, source):
    """The modulus c0,c1,... reduced mod p; ConfigError unless it defines GF(p^k)."""
    try:
        return check_modulus(p, k, [int(x) for x in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"bad modulus {text!r} from {source}: {exc}") from None


def _check_stages(stages):
    """ConfigError for an unknown stage, or for a stage whose inputs no
    selected earlier stage produces (it would be skipped, not checked)."""
    names = [name for name, _, _, _ in PIPELINE]
    unknown = [s for s in stages if s not in names]
    if unknown:
        raise ConfigError(f"unknown stage(s) {', '.join(map(repr, unknown))}; "
                          f"stages are {', '.join(names)}")
    made = {"C"}
    for name, _, requires, provides in PIPELINE:
        if name in stages:
            missing = [attr for attr in requires if attr not in made]
            if missing:
                raise ConfigError(f"stage {name} needs {', '.join(missing)}, "
                                  "which no selected earlier stage produces")
            made.update(provides)


def build_config(args):
    if args.k < 1:
        raise ConfigError("--k must be at least 1")
    if args.p is not None:
        p, k = args.p, args.k
        # p^k for 1 < p <= 31 and k <= 5, else past the bound (2^6 > 31) or
        # p itself: no huge power is formed
        q = p ** min(k, 6) if 1 < p <= MAX_Q else p
    elif args.q is not None:
        q = args.q
    else:
        raise ConfigError("one of --q or --p is required")
    # before any field table is built (GF(q^2)'s have q^4 entries) and before
    # is_prime, which tries divisors up to sqrt(p)
    if q > MAX_Q:
        raise ConfigError(f"q must be at most {MAX_Q}")
    if args.p is None:
        try:
            p, k = _factor_prime_power(q)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    elif not is_prime(p):
        raise ConfigError(f"p={p} is not prime")
    if q % 2 == 0 and not args.exploratory:
        raise ConfigError("q must be odd")
    if q < 7 and not args.exploratory:
        raise ConfigError("q must be at least 7 (pass --exploratory for smaller q)")
    modulus = _parse_modulus(args.modulus, p, k, "--modulus") if args.modulus else None
    threads = args.threads if args.threads else (os.cpu_count() or 1)
    if threads < 1:
        raise ConfigError("--threads must be positive")
    stages = tuple(args.stages.split(",")) if getattr(args, "stages", None) else None
    if stages:
        _check_stages(stages)
    mode = args.mode
    control = getattr(args, "control", None)
    if mode == "negative-control" and control not in CONTROLS:
        raise ConfigError(f"--control must be one of {', '.join(CONTROLS)}")
    in_path = getattr(args, "in_path", None)
    if mode == "reconstruct" and not in_path:
        raise ConfigError("reconstruct needs --in <dump>")
    return RunConfig(mode=mode, q=q, p=p, k=k, modulus=modulus, seed=args.seed,
                     in_path=in_path, dump_path=_resolve(getattr(args, "dump", None)),
                     out_path=_resolve(args.out), fmt=args.format, threads=threads,
                     exploratory=args.exploratory, control=control, stages=stages)


def parse_c_dump(path, expect_q=None):
    """Read a point dump; returns (header dict, point tuples).

    Raises ParseError for text that is not UTF-8 and, with a line number,
    for malformed content, and SizeMismatch when the point count or
    multiplicity is wrong.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from None
    if not raw:
        raise ParseError("empty file", line=1)
    header = {}
    for part in raw[0].split():
        if "=" not in part:
            raise ParseError(f"bad header field {part!r}", line=1)
        key, value = part.split("=", 1)
        header[key] = value
    try:
        q = int(header["q"])
    except (KeyError, ValueError):
        raise ParseError("header is missing q=<order>", line=1) from None
    if expect_q is not None and q != expect_q:
        raise SizeMismatch(f"dump is for q={q}, run configured for q={expect_q}")
    points = []
    for ln, text in enumerate(raw[1:], start=2):
        text = text.strip()
        if not text:
            continue
        parts = text.split(",")
        if len(parts) != 5:
            raise ParseError(f"expected 5 coordinates, got {len(parts)}", line=ln)
        try:
            pt = tuple(int(x) for x in parts)
        except ValueError:
            raise ParseError(f"non-integer coordinate in {text!r}", line=ln) from None
        if any(x < 0 or x >= q for x in pt):
            raise ParseError(f"coordinate out of range in {text!r}", line=ln)
        if pt[4] == 0:
            raise ParseError("not affine (last coordinate is 0)", line=ln)
        # an affine point is not the zero vector, so that is not tested
        points.append(pt)
    if len(set(points)) != len(points):
        raise SizeMismatch("duplicate points in the dump")
    if len(points) != q * q:
        raise SizeMismatch(f"{len(points)} points, expected {q * q}")
    return header, tuple(points)


def _timed_stage(name, fn, exploratory):
    t0 = time.perf_counter()
    try:
        counts = fn()
        verdict, witness = PASS, None
    except LemmaViolation as exc:
        counts, witness = {}, witness_text(exc)
        verdict = WARN if exploratory else FAIL
    ms = (time.perf_counter() - t0) * 1000.0
    return StageRecord(name=name, verdict=verdict, counts=counts,
                       witness=witness, millis=ms)


def run(config):
    """Execute the configured mode; returns (exit_code, Report)."""
    records = []
    digests = {"input": None, "output": None}
    modulus = config.modulus
    if config.mode == "reconstruct":
        # the dump names the field it was written in; read it in that field
        header, points = parse_c_dump(config.in_path, expect_q=config.q)
        digests["input"] = file_digest(config.in_path)
        if header.get("poly"):
            modulus = _parse_modulus(header["poly"], config.p, config.k, "the dump header")
            if config.modulus and config.modulus != modulus:
                raise ConfigError(f"dump header poly={header['poly']} conflicts with "
                                  f"--modulus {','.join(map(str, config.modulus))}")
            if modulus != default_modulus(config.p, config.k):
                config = replace(config, modulus=modulus)  # echo the field read in
    frame = make_frame(config.q, modulus)

    def forward():
        t0 = time.perf_counter()
        conic = random_tangent_conic(frame, config.seed)
        C = build_C(frame, conic)
        ms = (time.perf_counter() - t0) * 1000.0
        records.append(StageRecord(
            name="forward_build", verdict=PASS, millis=ms,
            counts={"conic_points": len(conic.points),
                    "c_points": len(C),
                    "spread_lines": len(frame.spread.lines)}))
        return conic, C

    if config.mode == "forward":
        conic, C = forward()
        dump = config.dump_path or _resolve(f"C-q{config.q}-seed{config.seed}.txt")
        write_c_dump(dump, frame, C, config.seed)
        digests["output"] = file_digest(dump)
        records.append(StageRecord(name="write_dump", verdict=PASS,
                                   counts={"points": len(C)}, millis=0.0))

    elif config.mode == "lemma1":
        conic, C = forward()
        records.append(_timed_stage("lemma1", lambda: _lemma1_counts(frame, conic),
                                    config.exploratory))

    elif config.mode == "roundtrip":
        conic, C = forward()
        state = PipelineState(frame, C, conic=conic,
                              exploratory=config.exploratory,
                              expect_classical=True)
        records.extend(run_stages(state, include=set(config.stages) if config.stages else None))

    elif config.mode == "reconstruct":
        state = PipelineState(frame, points, exploratory=config.exploratory)
        records.extend(run_stages(state, include=set(config.stages) if config.stages else None))

    elif config.mode == "negative-control":
        conic, C = forward()
        if config.control == "displaced-point":
            bad = displace_point(frame, C, seed=config.seed)
            records.append(StageRecord(name="corrupt_points", verdict=PASS,
                                       counts={"displaced": 1}))
            state = PipelineState(frame, bad, exploratory=config.exploratory)
            records.extend(run_stages(state))
        elif config.control == "perturbed-spread":
            state = PipelineState(frame, C, exploratory=config.exploratory)
            spread, reg = perturb_spread_by_regulus(frame.sigma, frame.spread)
            state.spread = spread
            records.append(StageRecord(name="perturb_spread", verdict=PASS,
                                       counts={"regulus_size": len(reg.lines)}))
            records.extend(run_stages(state,
                                      include={"regulus_closure", "klein_regularity"}))
        elif config.control == "corrupted-arc":
            bad = displace_point(frame, C, seed=config.seed)
            records.append(StageRecord(name="corrupt_points", verdict=PASS,
                                       counts={"displaced": 1}))
            state = PipelineState(frame, bad, exploratory=config.exploratory)
            state.spread = frame.spread
            state.regular = True
            records.extend(run_stages(state, include={"rebuild_arc"}))

    report = Report.from_stages(config.echo(), records,
                                exploratory=config.exploratory, digests=digests)
    code = 0 if report.verdict in (PASS, "exploratory") else 1
    return code, report


def _lemma1_counts(frame, conic):
    rep = verify_lemma1(frame, conic)
    return {
        "planes": rep.plane_count,
        "arc_checks": rep.arc_checks,
        "interior_on_no_plane": rep.interior_count,
        "exterior_on_two_planes": rep.exterior_count,
        "subplane_spot_checks": rep.spot_checks,
    }


def make_parser():
    parser = argparse.ArgumentParser(
        prog="pgconics",
        description="Verification harness for conic point sets in PG(4,q)")
    sub = parser.add_subparsers(dest="mode", required=True, metavar="|".join(MODES))
    for mode in MODES:
        sp = sub.add_parser(mode)
        sp.add_argument("--q", type=int, help="field order (odd prime power, at most 31)")
        sp.add_argument("--p", type=int, help="characteristic (alternative to --q)")
        sp.add_argument("--k", type=int, default=1, help="extension degree with --p")
        sp.add_argument("--modulus", help="modulus coefficients c0,c1,... (little-endian)")
        sp.add_argument("--seed", type=int, default=0, help="conic seed (0 = canonical)")
        sp.add_argument("--out", help="write the report here instead of stdout")
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--threads", type=int, default=0,
                        help="accepted and echoed in the report for compatibility; "
                             "it has no effect on the work (default: available "
                             "parallelism)")
        sp.add_argument("--exploratory", action="store_true",
                        help="admit q < 7 or even q; violations become warnings")
        sp.add_argument("--stages", help="comma-separated subset of pipeline stages")
        if mode == "forward":
            sp.add_argument("--dump", help="where to write the point dump")
        if mode == "reconstruct":
            sp.add_argument("--in", dest="in_path", help="point dump to reconstruct from")
        if mode == "negative-control":
            sp.add_argument("--control", choices=CONTROLS)
    return parser


# Built on the first main() call: parse_args starts each call from a fresh
# namespace, so one parser serves every call of a process.
_parser = functools.cache(make_parser)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return exc.code
    try:
        config = build_config(args)
        code, report = run(config)
        text = report.to_json() if config.fmt == "json" else report.to_text()
        if config.out_path:
            with open(config.out_path, "w") as fh:
                fh.write(text + "\n")
    except (ConfigError, ParseError, SizeMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not config.out_path:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
