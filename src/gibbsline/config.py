"""Flat INI-like model configuration: parsing, validation, canonical emission.

Four sections -- [model], [potential], [sweep], [output] -- with `key = value`
lines, `#` comments, and values that are integers, reals, comma-separated
lists, symbol words, edge pairs "i j" or table triples "i j value". Unknown
sections or keys are rejected. Parsing fills every default and the canonical
emission echoes them back, so emit(parse(text)) is a stable fixed point.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import ParseError, ValidationError
from .potential import Family, MarkovPotential, TailDescriptor, TailKind
from .shift_model import SYMBOL_LIMIT, ModelKind, ShiftModel, TailRule

_SECTIONS = ("model", "potential", "sweep", "output")

_KEYS = {
    "model": ("kind", "edges", "tail_rule"),
    "potential": ("family", "table", "tail_type", "tail_a", "tail_b", "tail_p"),
    "sweep": ("ks", "ts", "zt_ts", "words", "tol", "budget"),
    "output": ("directory", "formats"),
}

_SWEEP_DEFAULTS = {
    "ks": "1,2,3,4,5,6",
    "ts": "2,4,8,16,32,64",
    "zt_ts": "2,4,8,16,32,64,128,256,512,1024",
    "words": "0,0-0",
    "tol": "1e-06",
    "budget": "1000000",
}


@dataclass(frozen=True)
class SweepParams:
    ks: tuple[int, ...]
    ts: tuple[float, ...]
    zt_ts: tuple[float, ...]
    words: tuple[tuple[int, ...], ...]
    tol: float
    budget: int


@dataclass(frozen=True)
class OutputParams:
    directory: str
    formats: tuple[str, ...]


@dataclass(frozen=True)
class ModelConfig:
    model: ShiftModel
    potential: MarkovPotential
    sweep: SweepParams
    output: OutputParams
    per_truncation_only: bool

    @cached_property
    def _canonical(self) -> str:
        return _emit_canonical(self)

    def canonical_text(self) -> str:
        """The canonical emission, rendered once per config and shared with `config_hash`."""
        return self._canonical

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# value helpers


def word_to_str(word: tuple[int, ...]) -> str:
    if all(s <= 9 for s in word):
        return "".join(str(s) for s in word)
    return "-".join(str(s) for s in word)


def str_to_word(token: str) -> tuple[int, ...]:
    token = token.strip()
    if not token:
        raise ValueError("empty word")
    if "-" in token:
        return tuple(int(p) for p in token.split("-"))
    return tuple(int(ch) for ch in token)


def _parse_int(raw: str, line: int, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(line, f"{key}: expected an integer, got {raw!r}") from None


def _parse_symbol(raw: str, line: int, key: str) -> int:
    value = _parse_int(raw, line, key)
    # checked here too: table symbols on built-in models never reach ShiftModel
    if value >= SYMBOL_LIMIT:
        raise ParseError(line, f"{key}: symbol {raw!r} is not below 2^62")
    return value


def _parse_float(raw: str, line: int, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(line, f"{key}: expected a real number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ParseError(line, f"{key}: expected a finite real number, got {raw!r}")
    return value


def _parse_int_list(raw: str, line: int, key: str) -> tuple[int, ...]:
    raw = raw.strip()
    if ":" in raw and "," not in raw:
        lo_s, hi_s = raw.split(":", 1)
        lo, hi = _parse_int(lo_s, line, key), _parse_int(hi_s, line, key)
        if hi < lo:
            raise ParseError(line, f"{key}: empty range {raw!r}")
        return tuple(range(lo, hi + 1))
    return tuple(_parse_int(p, line, key) for p in raw.split(",") if p.strip())


def _parse_float_list(raw: str, line: int, key: str) -> tuple[float, ...]:
    return tuple(_parse_float(p, line, key) for p in raw.split(",") if p.strip())


# ---------------------------------------------------------------------------
# parsing


def _read_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ParseError(lineno, f"unknown section [{name}]")
            if name in sections:
                raise ParseError(lineno, f"duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise ParseError(lineno, "key outside any section")
        if "=" not in line:
            raise ParseError(lineno, f"expected 'key = value', got {line!r}")
        key, value = (p.strip() for p in line.split("=", 1))
        key = key.lower()
        if key not in _KEYS[current]:
            raise ParseError(lineno, f"unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ParseError(lineno, f"duplicate key {key!r}")
        sections[current][key] = (value, lineno)
    return sections


def parse_model_config(text: str) -> ModelConfig:
    """Parse and validate a config; all defaults are filled in the result."""
    sections = _read_sections(text)
    model_sec = sections.get("model", {})
    pot_sec = sections.get("potential", {})
    sweep_sec = sections.get("sweep", {})
    out_sec = sections.get("output", {})

    model = _build_model(model_sec)
    potential, per_trunc = _build_potential(pot_sec, model)
    sweep = _build_sweep(sweep_sec)
    output = _build_output(out_sec)
    return ModelConfig(model, potential, sweep, output, per_trunc)


def _build_model(sec: dict[str, tuple[str, int]]) -> ShiftModel:
    kind_raw, kind_line = sec.get("kind", ("full", 0))
    try:
        kind = ModelKind(kind_raw.lower())
    except ValueError:
        raise ParseError(kind_line, f"unknown model kind {kind_raw!r}") from None
    if kind is not ModelKind.CUSTOM:
        if "edges" in sec or "tail_rule" in sec:
            line = sec.get("edges", sec.get("tail_rule"))[1]
            raise ParseError(line, "edges/tail_rule only apply to custom models")
        return ShiftModel(kind)
    edges_raw, edges_line = sec.get("edges", ("", 0))
    edges = []
    for part in edges_raw.split(","):
        part = part.strip()
        if not part:
            continue
        toks = part.split()
        if len(toks) != 2:
            raise ParseError(edges_line, f"edge must be 'i j', got {part!r}")
        edges.append((_parse_symbol(toks[0], edges_line, "edges"), _parse_symbol(toks[1], edges_line, "edges")))
    tail_raw, tail_line = sec.get("tail_rule", ("none", 0))
    try:
        tail_rule = TailRule(tail_raw.lower())
    except ValueError:
        raise ParseError(tail_line, f"unknown tail rule {tail_raw!r}") from None
    try:
        return ShiftModel(ModelKind.CUSTOM, tuple(edges), tail_rule)
    except ValidationError as exc:
        raise ParseError(edges_line, str(exc)) from None


def _build_potential(sec: dict[str, tuple[str, int]], model: ShiftModel) -> tuple[MarkovPotential, bool]:
    family_raw, family_line = sec.get("family", ("log_quadratic", 0))
    try:
        family = Family(family_raw.lower())
    except ValueError:
        raise ParseError(family_line, f"unknown potential family {family_raw!r}") from None

    table: list[tuple[int, int, float]] = []
    if "table" in sec:
        table_raw, table_line = sec["table"]
        if family is not Family.TABLE:
            raise ParseError(table_line, "table entries only apply to family=table")
        for part in table_raw.split(","):
            part = part.strip()
            if not part:
                continue
            toks = part.split()
            if len(toks) != 3:
                raise ParseError(table_line, f"table entry must be 'i j value', got {part!r}")
            table.append(
                (
                    _parse_symbol(toks[0], table_line, "table"),
                    _parse_symbol(toks[1], table_line, "table"),
                    _parse_float(toks[2], table_line, "table"),
                )
            )

    tail_type_raw, tail_line = sec.get("tail_type", ("none", 0))
    try:
        tail_kind = TailKind(tail_type_raw.lower())
    except ValueError:
        raise ParseError(tail_line, f"unknown tail type {tail_type_raw!r}") from None
    tail_a = _parse_float(*_get(sec, "tail_a", "0.0"), key="tail_a")
    tail_b = _parse_float(*_get(sec, "tail_b", "0.0"), key="tail_b")
    tail_p = _parse_float(*_get(sec, "tail_p", "0.0"), key="tail_p")

    tail = TailDescriptor(tail_kind, a=tail_a, b=tail_b, p=tail_p)
    try:
        pot = MarkovPotential(model, family, table=tuple(table), tail=tail)
    except ValidationError as exc:
        raise ParseError(family_line, str(exc)) from None
    per_trunc = model.is_infinite_alphabet() and pot.tail.kind is TailKind.NONE
    return pot, per_trunc


def _get(sec: dict[str, tuple[str, int]], key: str, default: str) -> tuple[str, int]:
    return sec.get(key, (default, 0))


def _build_sweep(sec: dict[str, tuple[str, int]]) -> SweepParams:
    get = lambda key: sec.get(key, (_SWEEP_DEFAULTS[key], 0))
    ks = _parse_int_list(*get("ks"), key="ks")
    ts = _parse_float_list(*get("ts"), key="ts")
    zt_ts = _parse_float_list(*get("zt_ts"), key="zt_ts")
    words_raw, words_line = get("words")
    try:
        words = tuple(str_to_word(tok) for tok in words_raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ParseError(words_line, f"bad word list: {exc}") from None
    tol = _parse_float(*get("tol"), key="tol")
    budget = _parse_int(*get("budget"), key="budget")
    for key, values in (("ks", ks), ("ts", ts), ("zt_ts", zt_ts)):
        if not values:
            raise ParseError(get(key)[1], f"{key} must list at least one value")
    if any(k < 0 for k in ks):
        raise ParseError(get("ks")[1], "truncation indices must be nonnegative")
    if any(t <= 1.0 for t in ts):
        raise ParseError(get("ts")[1], "sweep temperatures must satisfy t > 1")
    if any(t <= 1.0 for t in zt_ts):
        raise ParseError(get("zt_ts")[1], "zt_ts temperatures must satisfy t > 1")
    if tol <= 0.0:
        raise ParseError(get("tol")[1], f"tol must be positive, got {tol!r}")
    return SweepParams(ks, ts, zt_ts, words, tol, budget)


def _build_output(sec: dict[str, tuple[str, int]]) -> OutputParams:
    directory, _ = sec.get("directory", ("runs", 0))
    formats_raw, fmt_line = sec.get("formats", ("csv,json", 0))
    formats = tuple(p.strip().lower() for p in formats_raw.split(",") if p.strip())
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ParseError(fmt_line, f"unknown format {fmt!r}")
    return OutputParams(directory, formats)


# ---------------------------------------------------------------------------
# canonical emission


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _emit_canonical(cfg: ModelConfig) -> str:
    lines: list[str] = []
    lines.append("[model]")
    lines.append(f"kind = {cfg.model.kind.value}")
    if cfg.model.kind is ModelKind.CUSTOM:
        edges = ", ".join(f"{i} {j}" for i, j in cfg.model.custom_edges)
        lines.append(f"edges = {edges}")
        lines.append(f"tail_rule = {cfg.model.custom_tail_rule.value}")
    lines.append("")
    lines.append("[potential]")
    pot = cfg.potential
    lines.append(f"family = {pot.family.value}")
    if pot.family is Family.TABLE:
        table = ", ".join(f"{i} {j} {_fmt_float(v)}" for i, j, v in pot.table)
        lines.append(f"table = {table}")
    lines.append(f"tail_type = {pot.tail.kind.value}")
    lines.append(f"tail_a = {_fmt_float(pot.tail.a)}")
    lines.append(f"tail_b = {_fmt_float(pot.tail.b)}")
    lines.append(f"tail_p = {_fmt_float(pot.tail.p)}")
    lines.append("")
    lines.append("[sweep]")
    sw = cfg.sweep
    lines.append("ks = " + ",".join(str(k) for k in sw.ks))
    lines.append("ts = " + ",".join(_fmt_float(t) for t in sw.ts))
    lines.append("zt_ts = " + ",".join(_fmt_float(t) for t in sw.zt_ts))
    lines.append("words = " + ",".join(word_to_str(w) for w in sw.words))
    lines.append(f"tol = {_fmt_float(sw.tol)}")
    lines.append(f"budget = {sw.budget}")
    lines.append("")
    lines.append("[output]")
    lines.append(f"directory = {cfg.output.directory}")
    lines.append("formats = " + ",".join(cfg.output.formats))
    lines.append("")
    return "\n".join(lines)
