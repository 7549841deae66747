"""Output checks for benchmark jobs, run after the timed window.

Each check reads a job's stdout the way a user would and tests it against
references that do not use piforge's own arithmetic:

* verify: exactly |S| * (K + 1) rows in (p, k) order, each with value 1,
  residual 0 and ``exact_ok`` true.
* gupta and classical rows: the printed interval, widened by
  ``piforge.tail_bound(p, k, N)``, contains pi^p computed with mpmath at
  twice the working precision.
* baseline rows (kolbig, alzer-h, alzer-H, alzer-koumandos): the printed
  interval contains the same partial sum evaluated with mpmath.
* every value row: the printed residual agrees with the printed bounds, and
  a printed ``+/-width`` agrees with them too, to the digits printed.  This
  is what catches a changed digit that would leave the interval containing
  the truth.
* compare in pretty format prints residuals only, without the width they
  are uncertain by.  A gupta or classical residual must lie within the tail
  bound.  A baseline residual must match the mpmath partial sum minus pi^p,
  except for alzer-koumandos with mu > 1: its enclosure widens like mu^N
  (to 10^650 at mu = 5/4, N = 10^4, 1024 bits), so its residual digits are
  not certified and it is checked only where the bounds are printed.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from math import log2

import mpmath

from decks import Job

class OutputError(Exception):
    """A job's output is malformed or disagrees with a reference."""


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    # widest value enclosure, 1 + log2(1 + width * 2^prec) with the width
    # from +/-width or else value_hi - value_lo: 1 for an exact value; None
    # when the output prints no interval
    enclosure_bits: float | None = None


def _num(text: str) -> Fraction:
    try:
        return Fraction(Decimal(text))
    except (InvalidOperation, ValueError) as exc:
        raise OutputError(f"not a number: {text!r}") from exc


def _ulp(text: str) -> Fraction:
    """Weight of the last printed digit; 0 for the exact rendering "0"."""
    if text == "0":
        return Fraction(0)
    exponent = Decimal(text).as_tuple().exponent
    return Fraction(10) ** exponent


def _to_fraction(x: mpmath.mpf) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


class Oracle:
    """References shared by every check of one run; partial sums and powers
    of pi are computed once per distinct series and precision."""

    def __init__(self, tail_bound):
        self._tail_bound = tail_bound  # piforge.tail_bound, the certified tail
        self._pi_powers: dict[tuple[int, int], Fraction] = {}
        self._partials: dict[tuple[str, int], dict[int, Fraction]] = {}

    def pi_power(self, p: int, prec: int) -> Fraction:
        key = (p, prec)
        if key not in self._pi_powers:
            with mpmath.workprec(2 * prec):
                self._pi_powers[key] = _to_fraction(mpmath.pi**p)
        return self._pi_powers[key]

    def tail(self, series_id: str, N: int) -> Fraction:
        name, _, args = series_id.partition(":")
        fields = dict(item.split("=") for item in args.split(","))
        k = int(fields.get("k", 0))
        return self._tail_bound(int(fields["p"]), k, N)

    def partial(self, series_id: str, N: int, prec: int, needed: tuple[int, ...]) -> Fraction:
        """Partial sum over N terms; ``needed`` lists the other term counts
        to evaluate in the same pass."""
        known = self._partials.setdefault((series_id, prec), {})
        if N not in known:
            with mpmath.workprec(prec + 64):
                sums = _baseline_partials(series_id, sorted({N, *needed}))
            known.update((n, _to_fraction(v)) for n, v in sums.items())
        return known[N]


def _baseline_partials(series_id: str, Ns: list[int]) -> dict[int, mpmath.mpf]:
    """Partial sums of a baseline series at the current mpmath precision,
    by the same recurrences the series are defined with."""
    out = {}
    last = Ns[-1]
    mpf = mpmath.mpf
    acc = mpf(0)
    if series_id == "kolbig":  # 2 sum sigma_n / n
        p = q = mpf(1)
        u = v = mpf(0)
        for n in range(1, last + 1):
            u = (u * (4 * n - 1) + p) / (4 * n)
            v = (v * (4 * n - 3) + q) / (4 * n)
            p = p * (4 * n - 1) / (4 * n)
            q = q * (4 * n - 3) / (4 * n)
            acc += 2 * (u + v) / n
            if n in Ns:
                out[n] = acc
        return out
    if series_id in ("alzer-h", "alzer-H"):  # c sum mu_k h_k / k
        odd = series_id == "alzer-h"
        mu = mpf(1)
        h = mpf(0)
        for k in range(1, last + 1):
            mu = mu * (2 * k - 1) / (2 * k)
            h += mpf(1) / (2 * k - 1 if odd else k)
            acc += (4 if odd else 3) * mu * h / k
            if k in Ns:
                out[k] = acc
        return out
    if series_id.startswith("alzer-koumandos:mu="):  # 4 sum J_k / (1+mu)^(k+1)
        q = Fraction(series_id.partition("=")[2])
        mu = mpf(q.numerator) / q.denominator
        j_val = mpf(1)
        weight = 4 / (1 + mu)
        shift_pow = mpf(1)
        acc = weight
        for k in range(1, last):
            shift_pow *= mu - 1
            j_val = (j_val * (2 * k) * mu + shift_pow) / (2 * k + 1)
            weight /= 1 + mu
            acc += weight * j_val
            if k + 1 in Ns:
                out[k + 1] = acc
        if 1 in Ns:
            out[1] = 4 / (1 + mu)
        return out
    raise ValueError(f"no mpmath reference for {series_id!r}")


# -- parsing ---------------------------------------------------------------------


def _pretty_table(text: str) -> list[dict[str, str]]:
    lines = text.splitlines()
    if len(lines) < 2 or set(lines[1].replace(" ", "")) != {"-"}:
        raise OutputError("pretty table without header rule")
    header = lines[0].split()
    rows = []
    for line in lines[2:]:
        cells = line.split()
        if len(cells) != len(header):
            raise OutputError(f"row has {len(cells)} cells, header {len(header)}")
        rows.append(dict(zip(header, cells)))
    return rows


def _rows(job: Job, text: str) -> list[dict[str, str]]:
    if job.fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    if job.fmt == "json":
        try:
            records = json.loads(text)
        except json.JSONDecodeError as exc:
            raise OutputError(f"bad JSON: {exc}") from exc
        rows = []
        for rec in records:
            row = {key: str(value) for key, value in rec.items()}
            row["exact_ok"] = {True: "true", False: "false", None: ""}[rec["exact_ok"]]
            rows.append(row)
        return rows
    return _pretty_table(text)


# -- checks ----------------------------------------------------------------------


def _check_verify(job: Job, text: str) -> Verdict:
    rows = _rows(job, text)
    expected = [(p, k) for p in job.powers for k in range(job.k_max + 1)]
    if len(rows) != len(expected):
        raise OutputError(f"{len(rows)} rows, expected {len(expected)}")
    ok_word = "ok" if job.fmt == "pretty" else "true"
    for row, (p, k) in zip(rows, expected):
        want = {
            "series_id": f"gupta:p={p},k={k}",
            "p": str(p),
            "k": str(k),
            "N": "0",
            "value_lo": "1",
            "value_hi": "1",
            "target": "1",
            "residual": "0",
            "exact_ok": ok_word,
        }
        got = {key: row.get(key) for key in want}
        if got != want:
            raise OutputError(f"identity row {got} is not {want}")
    return Verdict(True, enclosure_bits=1.0)


def _check_value_row(job: Job, row: dict[str, str], oracle: Oracle, sid: str, N: int) -> float:
    prec = job.prec
    p = job.target_p
    target = "pi" if p == 1 else f"pi^{p}"
    k = sid.partition(",k=")[2] if sid.startswith("gupta") else "0"
    want = {"series_id": sid, "p": str(p), "k": k, "N": str(N), "target": target}
    got = {key: row.get(key) for key in want}
    if got != want:
        raise OutputError(f"row {got} is not {want}")
    if row.get("exact_ok") not in ("", "-"):
        raise OutputError(f"value row with exact_ok {row.get('exact_ok')!r}")
    lo_text, hi_text, res_text = row["value_lo"], row["value_hi"], row["residual"]
    lo, hi, residual = _num(lo_text), _num(hi_text), _num(res_text)
    u_lo, u_hi, u_res = _ulp(lo_text), _ulp(hi_text), _ulp(res_text)
    if lo > hi:
        raise OutputError(f"inverted interval [{lo_text}, {hi_text}]")
    pi_p = oracle.pi_power(p, prec)
    slack = Fraction(1, 1 << (prec + 32))
    if sid.split(":")[0] in ("gupta", "classical"):
        tail = oracle.tail(sid, N)
        if not lo - tail - slack <= pi_p <= hi + tail + slack:
            raise OutputError(f"{sid} N={N}: [lo - tail, hi + tail] misses {target}")
    else:
        value = oracle.partial(sid, N, prec, job.terms)
        if not lo - slack <= value <= hi + slack:
            raise OutputError(f"{sid} N={N}: interval misses the mpmath partial sum")
    # residual = mid - pi^p.mid; printed bounds round outward by < 1 ulp each,
    # the residual to nearest, and pi^p.mid is within 2^(12-prec) of pi^p
    gap = abs((lo + hi) / 2 - pi_p - residual)
    if gap > (u_lo + u_hi + u_res) / 2 + Fraction(1, 1 << (prec - 12)):
        raise OutputError(f"{sid} N={N}: residual {res_text} disagrees with the bounds")
    width = hi - lo
    if "+/-width" in row:
        width_text = row["+/-width"]
        printed, u_width = _num(width_text), _ulp(width_text)
        if not width - u_lo - u_hi <= printed <= width + u_width:
            raise OutputError(f"{sid} N={N}: width {width_text} disagrees with the bounds")
        width = printed  # bounds printed to fewer digits than the width needs
    ulps = width * (1 << prec) + 1
    return 1 + log2(ulps.numerator) - log2(ulps.denominator)


def _check_values(job: Job, text: str, oracle: Oracle) -> Verdict:
    rows = _rows(job, text)
    expected = [(sid, N) for N in job.terms for sid in job.series]
    if len(rows) != len(expected):
        raise OutputError(f"{len(rows)} rows, expected {len(expected)}")
    widest = max(
        _check_value_row(job, row, oracle, sid, N) for row, (sid, N) in zip(rows, expected)
    )
    return Verdict(True, enclosure_bits=widest)


def _check_matrix(job: Job, text: str, oracle: Oracle) -> Verdict:
    rows = _pretty_table(text)
    if text.splitlines()[0].split() != ["N", *job.series]:
        raise OutputError("residual matrix header does not list the series")
    if [row["N"] for row in rows] != [str(N) for N in job.terms]:
        raise OutputError("residual matrix rows do not list the term counts")
    pi_p = oracle.pi_power(job.target_p, job.prec)
    for row in rows:
        N = int(row["N"])
        for sid in job.series:
            text_r = row[sid]
            residual = _num(text_r)
            tol = _ulp(text_r) / 2 + Fraction(1, 1 << (job.prec - 40))
            if sid.split(":")[0] in ("gupta", "classical"):
                if abs(residual) > oracle.tail(sid, N) + tol:
                    raise OutputError(f"{sid} N={N}: residual {text_r} exceeds the tail bound")
            elif not (sid.startswith("alzer-koumandos") and Fraction(sid.partition("=")[2]) > 1):
                expected = oracle.partial(sid, N, job.prec, job.terms) - pi_p
                if abs(residual - expected) > tol:
                    raise OutputError(f"{sid} N={N}: residual {text_r} is not {float(expected):.12g}")
    return Verdict(True)


def check(job: Job, returncode: int, stdout: bytes, oracle: Oracle) -> Verdict:
    """Verdict on one job's exit code and output."""
    if returncode != 0:
        return Verdict(False, f"exit code {returncode}")
    try:
        text = stdout.decode("utf-8")
        if job.command == "verify":
            return _check_verify(job, text)
        if job.command == "compare" and job.fmt == "pretty":
            return _check_matrix(job, text, oracle)
        if job.command in ("sum", "compare"):
            return _check_values(job, text, oracle)
        return Verdict(bool(text.strip()), "" if text.strip() else "empty output")
    except (OutputError, KeyError, ValueError, ZeroDivisionError) as exc:
        return Verdict(False, f"{type(exc).__name__}: {exc}")
