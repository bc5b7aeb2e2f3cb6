"""Text file formats used by the CLI.

All binary material is lowercase hex inside line-oriented text files with
a v1 header; secret files carry an extra leading SECRET line. Element
files do not repeat the field modulus, so they are always read against a
parameter file, with the header serving as a consistency check.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .algebra import (AlgebraElement, AlgebraParams, rep_deserialize,
                      rep_serialize)
from .errors import ParameterError
from .field import FieldParams, digit_width_bytes
from .group import DihedralGroup
from .kex import PublicParams

HEADER_PREFIX = "twisted-dihedral v1"
SECRET_MARKER = "SECRET"

# The largest field order q = p^m a parameter file (or param-gen) may ask
# for: each field builds O(q) tables. The largest q that any test, golden
# file or benchmark uses is 3^7 = 2187.
MAX_Q = 2 ** 16


def check_field_size(p: int, m: int) -> None:
    """Refuse q = p^m above MAX_Q, before any field table is built."""
    # q >= 2^m for any p > 1, so a long m is refused without computing p^m
    if p > 1 and m > 0 and (m >= MAX_Q.bit_length() or p ** m > MAX_Q):
        raise ParameterError(f"q={p}^{m} exceeds the bound {MAX_Q}")


def _lambda_digits(algebra: AlgebraParams) -> str:
    return ",".join(str(d) for d in algebra.lam.digits)


def format_header(algebra: AlgebraParams) -> str:
    return (f"{HEADER_PREFIX} p={algebra.field.p} m={algebra.field.m} "
            f"n={algebra.n} lambda={_lambda_digits(algebra)}")


def check_header(line: str, algebra: AlgebraParams) -> None:
    expected = format_header(algebra)
    if line.strip() != expected:
        raise ParameterError(
            f"header mismatch: expected {expected!r}, found {line.strip()!r}")


def write_element_file(path, algebra: AlgebraParams,
                       elements: Sequence[AlgebraElement],
                       secret: bool = False) -> None:
    lines = []
    if secret:
        lines.append(SECRET_MARKER)
    lines.append(format_header(algebra))
    lines += [rep_serialize(e).hex() for e in elements]
    Path(path).write_text("\n".join(lines) + "\n")


def read_element_file(path, algebra: AlgebraParams, expect: int) -> list[AlgebraElement]:
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if lines and lines[0] == SECRET_MARKER:
        lines = lines[1:]
    if not lines:
        raise ParameterError(f"{path}: empty element file")
    check_header(lines[0], algebra)
    elements = [rep_deserialize(bytes.fromhex(ln), algebra) for ln in lines[1:]]
    if len(elements) != expect:
        raise ParameterError(
            f"{path}: expected {expect} elements, found {len(elements)}")
    return elements


def write_param_file(path, pp: PublicParams) -> None:
    algebra = pp.algebra
    field = algebra.field
    lines = [
        f"p={field.p}",
        f"m={field.m}",
    ]
    if field.m > 1:
        lines.append("modulus=" + ",".join(str(c) for c in field.modulus))
    lines += [
        f"n={algebra.n}",
        f"lambda={_lambda_digits(algebra)}",
        f"h={rep_serialize(pp.h).hex()}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def read_param_file(path) -> PublicParams:
    entries: dict[str, str] = {}
    for ln in Path(path).read_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ParameterError(f"{path}: malformed line {ln!r}")
        key, value = ln.split("=", 1)
        entries[key.strip()] = value.strip()
    try:
        p = int(entries["p"])
        m = int(entries.get("m", "1"))
        n = int(entries["n"])
        lam_digits = [int(d) for d in entries["lambda"].split(",")]
        h_hex = entries["h"]
    except KeyError as exc:
        raise ParameterError(f"{path}: missing parameter {exc}") from exc
    modulus = None
    if "modulus" in entries:
        modulus = [int(c) for c in entries["modulus"].split(",")]
    elif m > 1:
        raise ParameterError(f"{path}: modulus is required when m > 1")
    # checks on the text alone, before the field builds its tables
    group = DihedralGroup(n)
    check_field_size(p, m)
    if p and (2 * n) % p != 0:  # FieldParams refuses p = 0
        raise ParameterError(f"p={p} must divide 2n={2 * n}")
    h_digits = 2 * (2 * n) * m * digit_width_bytes(p)
    if len(h_hex) != h_digits:
        raise ParameterError(
            f"{path}: h has {len(h_hex)} hex digits, expected {h_digits}")
    field = FieldParams(p, m, modulus)
    lam = field.elem(lam_digits)
    algebra = AlgebraParams(field, group, lam)
    h = rep_deserialize(bytes.fromhex(h_hex), algebra)
    return PublicParams(algebra, h)

