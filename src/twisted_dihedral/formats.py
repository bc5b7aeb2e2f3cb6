"""Text file formats used by the CLI.

All binary material is lowercase hex inside line-oriented text files with
a header; secret files carry an extra leading SECRET line. Element files
are read against a parameter file, and their header, v1 where m = 1 and
v2 naming the field modulus too where m > 1, is a consistency check.

A parameter file whose q exceeds the field's bound (`field.MAX_Q`) is
refused on its text alone, before `FieldParams` would refuse it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .algebra import (AlgebraElement, AlgebraParams, rep_deserialize,
                      rep_serialize)
from .errors import ParameterError
from .field import FieldParams, check_field_size, digit_width_bytes
from .group import DihedralGroup
from .kex import PublicParams

SECRET_MARKER = "SECRET"


def _listed(digits: Sequence[int]) -> str:
    return ",".join(str(d) for d in digits)


def format_header(algebra: AlgebraParams) -> str:
    """v1 where m = 1; where m > 1, v2, which also names the field modulus."""
    field, lam = algebra.field, _listed(algebra.lam.digits)
    if field.m == 1:
        return f"twisted-dihedral v1 p={field.p} m=1 n={algebra.n} lambda={lam}"
    return (f"twisted-dihedral v2 p={field.p} m={field.m} n={algebra.n} "
            f"modulus={_listed(field.modulus)} lambda={lam}")


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
        lines.append(f"modulus={_listed(field.modulus)}")
    lines += [
        f"n={algebra.n}",
        f"lambda={_listed(algebra.lam.digits)}",
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

