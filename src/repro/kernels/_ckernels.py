"""C renderings of the kernels, compiled on first use and bound via ctypes.

No build step and no new Python dependency: the C source below is
compiled into a tiny shared library with whatever system compiler is
present (``cc``/``gcc``/``clang``) and loaded with :mod:`ctypes`.  The
library is cached on disk keyed by a hash of the source and the compiler
flags — ``$REPRO_KERNEL_CACHE`` if set, else a per-user directory under
the system temp dir — so pool workers (and repeat processes) ``dlopen``
the existing artifact instead of recompiling.  The build is atomic
(compile to a unique temp name, then ``os.replace``), so concurrent
workers racing on a cold cache cannot observe a half-written library.

Bit-identity with the Python reference rests on two properties:

* C ``double`` arithmetic is IEEE-754 binary64, the same as CPython's
  ``float``, provided the compiler neither contracts ``a*b+c`` into an
  FMA nor reassociates — hence ``-ffp-contract=off -fno-fast-math`` in
  :data:`CFLAGS`.  Every expression below copies the reference's
  source-level operation order, so each intermediate rounds identically.
* ``(int64_t)(u * (double)deg)`` truncates toward zero, matching numpy's
  ``.astype(np.int64)`` on non-negative values.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from shutil import which

import numpy as np

__all__ = ["build", "compiler", "KernelBuildError"]

#: environment override for the compiled-kernel cache directory.
CACHE_ENV = "REPRO_KERNEL_CACHE"

#: extra build flags appended to :data:`CFLAGS` (shlex syntax) — the CI
#: sanitizer leg injects ``-fsanitize=address,undefined`` here.  Flags
#: land in the cache tag, so sanitized and plain builds never collide.
EXTRA_CFLAGS_ENV = "REPRO_KERNEL_CFLAGS"

#: strictly-IEEE optimisation flags: -O3 for the speed the kernels exist
#: for, contraction and fast-math explicitly off for bit-identity.
CFLAGS = ["-O3", "-shared", "-fPIC", "-ffp-contract=off", "-fno-fast-math"]

#: value-changing FP optimisations that would detach the C kernel from
#: its Python twin; rejected even when injected via the environment.
_FORBIDDEN_CFLAGS = ("-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-fassociative-math", "-freciprocal-math", "-ffp-contract=fast")  # repro: ignore[fast-math]

SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* Queue-based PR-Nibble push loop; mirrors repro.core.pr_nibble's
 * sequential reference including dict-insertion order (p: first push,
 * r: seeds then first touch).  Returns 0, or -1 on allocation failure.
 * counters: [num_p, num_r, pushes, touched_edges]. */
i64 ppr_push(const i64 *offsets, const i64 *neighbors, i64 n,
             const i64 *seeds, i64 num_seeds,
             double alpha, double eps, i64 optimized,
             double *p, double *r,
             uint8_t *in_p, uint8_t *in_r, uint8_t *queued,
             i64 *p_order, i64 *r_order, i64 *counters)
{
    i64 num_p = 0, num_r = 0, pushes = 0, touched = 0;
    i64 qcap = num_seeds * 2 > 128 ? num_seeds * 2 : 128;
    i64 *queue = (i64 *)malloc((size_t)qcap * sizeof(i64));
    if (!queue)
        return -1;
    i64 head = 0, tail = 0;
    double r0 = 1.0 / (double)num_seeds;
    for (i64 k = 0; k < num_seeds; k++) {
        i64 s = seeds[k];
        r[s] = r0;
        in_r[s] = 1;
        r_order[num_r++] = s;
        queue[tail++] = s;
        queued[s] = 1;
    }
    while (head < tail) {
        i64 vertex = queue[head++];
        queued[vertex] = 0;
        i64 degree = offsets[vertex + 1] - offsets[vertex];
        if (degree == 0)
            continue;
        double threshold = eps * (double)degree;
        while (r[vertex] >= threshold) {
            double residual = r[vertex];
            double gain, share;
            if (optimized) {
                gain = (2.0 * alpha / (1.0 + alpha)) * residual;
                share = ((1.0 - alpha) / (1.0 + alpha)) * residual / (double)degree;
                r[vertex] = 0.0;
            } else {
                gain = alpha * residual;
                share = (1.0 - alpha) * residual / (2.0 * (double)degree);
                r[vertex] = (1.0 - alpha) * residual / 2.0;
            }
            if (!in_p[vertex]) {
                in_p[vertex] = 1;
                p_order[num_p++] = vertex;
            }
            p[vertex] += gain;
            pushes++;
            touched += degree;
            for (i64 edge = offsets[vertex]; edge < offsets[vertex + 1]; edge++) {
                i64 neighbor = neighbors[edge];
                if (!in_r[neighbor]) {
                    in_r[neighbor] = 1;
                    r_order[num_r++] = neighbor;
                }
                r[neighbor] += share;
                if (!queued[neighbor]) {
                    i64 nb_degree = offsets[neighbor + 1] - offsets[neighbor];
                    if (r[neighbor] >= eps * (double)nb_degree) {
                        if (tail == qcap) {
                            qcap *= 2;
                            i64 *grown = (i64 *)realloc(queue, (size_t)qcap * sizeof(i64));
                            if (!grown) {
                                free(queue);
                                return -1;
                            }
                            queue = grown;
                        }
                        queue[tail++] = neighbor;
                        queued[neighbor] = 1;
                    }
                }
            }
        }
    }
    free(queue);
    counters[0] = num_p;
    counters[1] = num_r;
    counters[2] = pushes;
    counters[3] = touched;
    return 0;
}

/* ---- The frontier round shared by the BSP diffusions (Figures 3, 5-7):
 * a self update on the frontier, a share per edge scattered into acc in
 * gathered-edge order (frontier ascending, CSR order within a vertex) and
 * added once per target, as np.bincount pre-combines inside
 * SparseVector.add, a local threshold filter c * d(v), and the next
 * frontier in ascending order, as VertexSubset keeps it. ---- */

enum { IN_FRONTIER = 1, TARGET = 2 };

/* UpdateNgh of one frontier vertex: acc[w] += share for each edge
 * (vertex, w), appending first-touched targets; returns the new count. */
static inline i64 scatter(const i64 *offsets, const i64 *neighbors, i64 vertex,
                          double share, double *acc, uint8_t *mark,
                          i64 *targets, i64 distinct)
{
    for (i64 edge = offsets[vertex]; edge < offsets[vertex + 1]; edge++) {
        i64 neighbor = neighbors[edge];
        if (!(mark[neighbor] & TARGET)) {
            mark[neighbor] |= TARGET;
            targets[distinct++] = neighbor;
        }
        acc[neighbor] += share;
    }
    return distinct;
}

/* The local filter's test, value >= c * d(v). */
static inline int above(double value, double scale, i64 degree)
{
    return value >= scale * (double)degree;
}

/* Sort vertex ids in [0, n) ascending: LSD radix sort over 8-bit digits
 * through tmp; below 32 ids an insertion sort, cheaper than the passes. */
static void sort_ids(i64 *ids, i64 count, i64 n, i64 *tmp)
{
    if (count < 32) {
        for (i64 i = 1; i < count; i++) {
            i64 key = ids[i], j = i - 1;
            for (; j >= 0 && ids[j] > key; j--)
                ids[j + 1] = ids[j];
            ids[j + 1] = key;
        }
        return;
    }
    i64 *src = ids, *dst = tmp;
    for (int shift = 0; shift < 64 && ((n - 1) >> shift) > 0; shift += 8) {
        i64 start[257] = {0};
        for (i64 i = 0; i < count; i++)
            start[((src[i] >> shift) & 255) + 1]++;
        for (int digit = 0; digit < 256; digit++)
            start[digit + 1] += start[digit];
        for (i64 i = 0; i < count; i++)
            dst[start[(src[i] >> shift) & 255]++] = src[i];
        i64 *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != ids)
        memcpy(ids, src, (size_t)count * sizeof(i64));
}

/* The next frontier: sort the fresh ids, then merge them from the back
 * with the ascending survivors frontier[0..kept); returns its size. */
static i64 next_frontier(i64 *frontier, i64 kept, i64 *fresh, i64 count,
                         i64 n, i64 *tmp)
{
    sort_ids(fresh, count, n, tmp);
    i64 a = kept - 1, b = count - 1, size = kept + count;
    for (i64 out = size - 1; b >= 0; out--)
        frontier[out] = (a >= 0 && frontier[a] > fresh[b]) ? frontier[a--] : fresh[b--];
    return size;
}

/* Frontier-synchronous PR-Nibble rounds (Figures 5-6, beta == 1);
 * mirrors repro.core.pr_nibble.pr_nibble_parallel's numpy rounds bit for
 * bit.  Shares come from start-of-round residuals and UpdateSelf lands
 * before UpdateNgh.  Runs at most max_rounds rounds from the ascending
 * frontier in frontier[0..state[0]) and leaves the next frontier there.
 * state: [frontier size, num_p, num_r].  stats gets six counts per round:
 * |F|, vol(F), distinct pushed-to targets, candidates (F plus targets),
 * new p keys, new r keys.  acc and mark are zero on entry and on return.
 * Returns the number of rounds run. */
i64 ppr_bsp(const i64 *offsets, const i64 *neighbors, i64 n,
            double alpha, double eps, i64 optimized, i64 max_rounds,
            double *p, double *r, uint8_t *in_p, uint8_t *in_r,
            i64 *p_keys, i64 *r_keys, i64 *frontier, i64 *targets, i64 *sort_tmp,
            double *acc, uint8_t *mark, i64 *state, i64 *stats)
{
    i64 size = state[0], num_p = state[1], num_r = state[2];
    i64 rounds = 0;
    while (size > 0 && rounds < max_rounds) {
        i64 volume = 0, distinct = 0, overlap = 0, new_p = 0, new_r = 0;
        for (i64 i = 0; i < size; i++) {
            i64 vertex = frontier[i];
            i64 degree = offsets[vertex + 1] - offsets[vertex];
            double value = r[vertex];
            double gain, share;
            if (optimized) {
                gain = (2.0 * alpha / (1.0 + alpha)) * value;
                share = ((1.0 - alpha) / (1.0 + alpha)) * value / (double)degree;
                r[vertex] = 0.0;
            } else {
                gain = alpha * value;
                share = (1.0 - alpha) * value / (2.0 * (double)degree);
                r[vertex] = (1.0 - alpha) * value / 2.0;
            }
            if (!in_p[vertex]) {
                in_p[vertex] = 1;
                p_keys[num_p++] = vertex;
                new_p++;
            }
            p[vertex] += gain;
            mark[vertex] |= IN_FRONTIER;
            volume += degree;
            distinct = scatter(offsets, neighbors, vertex, share, acc, mark, targets, distinct);
        }
        /* Add each target's sum into r, then filter F plus targets:
         * eligible targets outside F compact into targets[0..fresh),
         * eligible F into frontier[0..kept). */
        i64 fresh = 0, kept = 0;
        for (i64 i = 0; i < distinct; i++) {
            i64 vertex = targets[i];
            i64 degree = offsets[vertex + 1] - offsets[vertex];
            if (!in_r[vertex]) {
                in_r[vertex] = 1;
                r_keys[num_r++] = vertex;
                new_r++;
            }
            r[vertex] += acc[vertex];
            acc[vertex] = 0.0;
            if (mark[vertex] & IN_FRONTIER)
                overlap++;
            else if (degree > 0 && above(r[vertex], eps, degree))
                targets[fresh++] = vertex;
            mark[vertex] &= IN_FRONTIER;
        }
        for (i64 i = 0; i < size; i++) {
            i64 vertex = frontier[i];
            mark[vertex] = 0;
            if (above(r[vertex], eps, offsets[vertex + 1] - offsets[vertex]))
                frontier[kept++] = vertex;
        }
        i64 *row = stats + 6 * rounds;
        row[0] = size;
        row[1] = volume;
        row[2] = distinct;
        row[3] = size + distinct - overlap;
        row[4] = new_p;
        row[5] = new_r;
        rounds++;
        size = next_frontier(frontier, kept, targets, fresh, n, sort_tmp);
    }
    state[0] = size;
    state[1] = num_p;
    state[2] = num_r;
    return rounds;
}

/* Frontier-synchronous Nibble steps (Figure 3); mirrors
 * repro.core.nibble.nibble_parallel's numpy rounds bit for bit.  p_i
 * lives in one half of values/keys (state[1] picks it; keys unordered,
 * state[2] of them) and each round builds p' in the other half:
 * p'[v] = p[v] / 2 on the frontier (degree-0 vertices included), plus
 * each target's shares p[v] / (2 d(v)).  A round with no survivor keeps
 * p_i and ends the run, as Figure 3 returns p_{i-1}.  Frontier as in
 * ppr_bsp; state: [frontier size, half of p, number of p keys].  stats
 * gets five counts per round: |F|, vol(F), distinct targets, candidates
 * (F plus targets), survivors.  acc and mark are zero on entry and on
 * return. */
i64 nibble_bsp(const i64 *offsets, const i64 *neighbors, i64 n,
               double eps, i64 max_rounds, double *values, i64 *keys,
               i64 *frontier, i64 *targets, i64 *sort_tmp,
               double *acc, uint8_t *mark, i64 *state, i64 *stats)
{
    i64 size = state[0], half = state[1], count = state[2];
    i64 rounds = 0;
    while (size > 0 && rounds < max_rounds) {
        const double *p = values + half * n;
        double *next = values + (1 - half) * n;
        i64 *next_keys = keys + (1 - half) * n;
        i64 volume = 0, distinct = 0;
        for (i64 i = 0; i < size; i++) {
            i64 vertex = frontier[i];
            i64 degree = offsets[vertex + 1] - offsets[vertex];
            double value = p[vertex];
            next[vertex] = value / 2.0;
            next_keys[i] = vertex;
            mark[vertex] |= IN_FRONTIER;
            volume += degree;
            double share = value / (2.0 * (double)(degree > 0 ? degree : 1));
            distinct = scatter(offsets, neighbors, vertex, share, acc, mark, targets, distinct);
        }
        /* p' keys: F, then the targets outside it, whose survivors
         * compact into targets[0..fresh); survivors of F into
         * frontier[0..kept). */
        i64 candidates = size, fresh = 0, kept = 0;
        for (i64 i = 0; i < distinct; i++) {
            i64 vertex = targets[i];
            if (mark[vertex] & IN_FRONTIER) {
                next[vertex] = next[vertex] + acc[vertex];
            } else {
                next[vertex] = 0.0 + acc[vertex];
                next_keys[candidates++] = vertex;
                if (above(next[vertex], eps, offsets[vertex + 1] - offsets[vertex]))
                    targets[fresh++] = vertex;
            }
            acc[vertex] = 0.0;
            mark[vertex] &= IN_FRONTIER;
        }
        for (i64 i = 0; i < size; i++) {
            i64 vertex = frontier[i];
            mark[vertex] = 0;
            if (above(next[vertex], eps, offsets[vertex + 1] - offsets[vertex]))
                frontier[kept++] = vertex;
        }
        i64 *row = stats + 5 * rounds;
        row[0] = size;
        row[1] = volume;
        row[2] = distinct;
        row[3] = candidates;
        row[4] = kept + fresh;
        rounds++;
        if (kept + fresh == 0) {
            size = 0;
            break;
        }
        half = 1 - half;
        count = candidates;
        size = next_frontier(frontier, kept, targets, fresh, n, sort_tmp);
    }
    state[0] = size;
    state[1] = half;
    state[2] = count;
    return rounds;
}

/* Level-synchronous HK-PR (Figure 7); mirrors
 * repro.core.hk_pr.hk_pr_parallel's numpy levels bit for bit.  Level j
 * adds r[v] into p on the frontier, then each target's shares
 * t r[v] / ((j + 1) d(v)) become level j + 1's residuals — or, on the
 * last level j + 1 = taylor_degree, shares r[v] / d(v) are added into p
 * and the run ends.  Level j's residuals are all read before level
 * j + 1's are written, so one r array serves every level.  scales[j] is
 * level j's threshold per unit of degree.  Frontier as in ppr_bsp;
 * state: [frontier size, level j, num_p].  stats gets five counts per
 * level: |F|, vol(F), new p keys from F, distinct targets, new p keys
 * from targets (last level only).  acc and mark are zero on entry and on
 * return. */
i64 hkpr_bsp(const i64 *offsets, const i64 *neighbors, i64 n,
             double t, i64 taylor_degree, const double *scales, i64 max_rounds,
             double *p, double *r, uint8_t *in_p, i64 *p_keys,
             i64 *frontier, i64 *targets, i64 *sort_tmp,
             double *acc, uint8_t *mark, i64 *state, i64 *stats)
{
    i64 size = state[0], level = state[1], num_p = state[2];
    i64 rounds = 0;
    while (size > 0 && rounds < max_rounds) {
        int last = level + 1 == taylor_degree;
        double factor = (double)level + 1.0;
        i64 volume = 0, new_p = 0, distinct = 0, new_target_p = 0;
        for (i64 i = 0; i < size; i++) {
            i64 vertex = frontier[i];
            i64 degree = offsets[vertex + 1] - offsets[vertex];
            double value = r[vertex];
            double d = (double)(degree > 0 ? degree : 1);
            if (!in_p[vertex]) {
                in_p[vertex] = 1;
                p_keys[num_p++] = vertex;
                new_p++;
            }
            p[vertex] += value;
            volume += degree;
            double share = last ? value / d : t * value / (factor * d);
            distinct = scatter(offsets, neighbors, vertex, share, acc, mark, targets, distinct);
        }
        i64 fresh = 0;
        for (i64 i = 0; i < distinct; i++) {
            i64 vertex = targets[i];
            if (last) {
                if (!in_p[vertex]) {
                    in_p[vertex] = 1;
                    p_keys[num_p++] = vertex;
                    new_target_p++;
                }
                p[vertex] += acc[vertex];
            } else {
                r[vertex] = 0.0 + acc[vertex];
                if (above(r[vertex], scales[level + 1], offsets[vertex + 1] - offsets[vertex]))
                    targets[fresh++] = vertex;
            }
            acc[vertex] = 0.0;
            mark[vertex] = 0;
        }
        i64 *row = stats + 5 * rounds;
        row[0] = size;
        row[1] = volume;
        row[2] = new_p;
        row[3] = distinct;
        row[4] = new_target_p;
        rounds++;
        if (last) {
            size = 0;
            break;
        }
        level++;
        size = next_frontier(frontier, 0, targets, fresh, n, sort_tmp);
    }
    state[0] = size;
    state[1] = level;
    state[2] = num_p;
    return rounds;
}

/* Endpoint counts of rand-HK-PR's walks: the distinct vertices of
 * walks[0..num_walks) ascending, each with its number of walks — what
 * aggregate_by_sort reads off the run boundaries of its sorted array.
 * tally is zero on entry and on return.  Returns the distinct count. */
i64 endpoint_count(const i64 *walks, i64 num_walks, i64 n, i64 *tally,
                   i64 *vertices, i64 *counts, i64 *sort_tmp)
{
    i64 distinct = 0;
    for (i64 i = 0; i < num_walks; i++)
        if (tally[walks[i]]++ == 0)
            vertices[distinct++] = walks[i];
    sort_ids(vertices, distinct, n, sort_tmp);
    for (i64 i = 0; i < distinct; i++) {
        counts[i] = tally[vertices[i]];
        tally[vertices[i]] = 0;
    }
    return distinct;
}

/* Incremental sweep membership scan (all-integer). */
void sweep_scan(const i64 *offsets, const i64 *neighbors,
                const i64 *ordered, const i64 *degrees, i64 n_ordered,
                uint8_t *members, i64 *volumes, i64 *cuts)
{
    i64 vol = 0, cut = 0;
    for (i64 i = 0; i < n_ordered; i++) {
        i64 vertex = ordered[i];
        vol += degrees[i];
        for (i64 edge = offsets[vertex]; edge < offsets[vertex + 1]; edge++)
            cut += members[neighbors[edge]] ? -1 : 1;
        members[vertex] = 1;
        volumes[i] = vol;
        cuts[i] = cut;
    }
}

/* Keep the walk lanes whose current vertex has outgoing edges; returns
 * the kept count, or -1 at a lane outside [0, n_lanes) or a vertex
 * outside [0, n).  Integer-only, order-preserving. */
i64 walk_filter(const i64 *offsets, i64 n, const i64 *current, i64 n_lanes,
                const i64 *active, i64 n_active,
                i64 *active_out, i64 *vertices_out)
{
    i64 kept = 0;
    for (i64 i = 0; i < n_active; i++) {
        i64 lane = active[i];
        if (lane < 0 || lane >= n_lanes)
            return -1;
        i64 vertex = current[lane];
        if (vertex < 0 || vertex >= n)
            return -1;
        if (offsets[vertex + 1] - offsets[vertex] > 0) {
            active_out[kept] = lane;
            vertices_out[kept] = vertex;
            kept++;
        }
    }
    return kept;
}

/* Advance each kept walk: pick = trunc(u * degree), matching numpy's
 * (uniforms * degrees).astype(int64).  Returns 0, or -1 at a lane outside
 * [0, n_lanes), a vertex outside [0, n) or without edges, or a uniform
 * outside [0, 1); lanes before it are already advanced.  The uniform is
 * tested before the cast, which is undefined for NaN. */
i64 walk_advance(const i64 *offsets, const i64 *neighbors, i64 n,
                 i64 *current, i64 n_lanes, const i64 *active,
                 const i64 *vertices, const double *uniforms, i64 n_active)
{
    for (i64 i = 0; i < n_active; i++) {
        i64 lane = active[i];
        i64 vertex = vertices[i];
        double u = uniforms[i];
        if (lane < 0 || lane >= n_lanes || vertex < 0 || vertex >= n
            || !(u >= 0.0 && u < 1.0))
            return -1;
        i64 degree = offsets[vertex + 1] - offsets[vertex];
        if (degree <= 0)
            return -1;
        i64 pick = (i64)(u * (double)degree);
        current[lane] = neighbors[offsets[vertex] + pick];
    }
    return 0;
}
"""


class KernelBuildError(RuntimeError):
    """The C kernels could not be compiled or loaded on this machine."""


def compiler() -> str | None:
    """Path of the first available system C compiler, or ``None``."""
    for name in ("cc", "gcc", "clang"):
        found = which(name)
        if found:
            return found
    return None


def _cache_dir() -> Path:
    configured = os.environ.get(CACHE_ENV)
    if configured:
        return Path(configured)
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return Path(tempfile.gettempdir()) / f"repro-kernels-{uid}"


def _extra_cflags() -> list[str]:
    """Flags from :data:`EXTRA_CFLAGS_ENV`, with fast-math rejected.

    The determinism contract is not overridable from the environment: a
    sanitizer leg may add instrumentation, but any value-changing FP
    flag raises :class:`KernelBuildError` before a compiler ever runs.
    """
    flags = shlex.split(os.environ.get(EXTRA_CFLAGS_ENV, ""))
    for flag in flags:
        if flag in _FORBIDDEN_CFLAGS:
            raise KernelBuildError(
                f"{EXTRA_CFLAGS_ENV} contains {flag!r}, which breaks "
                "bit-identity with the Python twin kernels; strict "
                "IEEE-754 builds only"
            )
    return flags


def _build_library(cc: str) -> Path:
    """Compile (or reuse) the kernel library; returns its path."""
    cflags = CFLAGS + _extra_cflags()
    tag = hashlib.blake2b(
        (SOURCE + " ".join(cflags) + cc).encode("utf-8"), digest_size=10
    ).hexdigest()
    suffix = ".dll" if sys.platform == "win32" else ".so"
    directory = _cache_dir()
    library = directory / f"repro_kernels_{tag}{suffix}"
    if library.exists():
        return library
    directory.mkdir(parents=True, exist_ok=True)
    source = directory / f"repro_kernels_{tag}.c"
    scratch = directory / f".build-{tag}-{os.getpid()}{suffix}"
    source.write_text(SOURCE)
    try:
        proc = subprocess.run(
            [cc, *cflags, "-o", str(scratch), str(source)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise KernelBuildError(
                f"C kernel build failed ({cc}):\n{proc.stderr.strip()}"
            )
        os.replace(scratch, library)  # atomic under concurrent builders
    except (OSError, subprocess.SubprocessError) as error:
        raise KernelBuildError(f"C kernel build failed: {error}") from error
    finally:
        if scratch.exists():
            scratch.unlink()
    return library


#: rounds per call of a frontier kernel (``ppr_bsp``, ``nibble_bsp``,
#: ``hkpr_bsp``): the per-round stats buffer's length.  The kernels are
#: resumable, so a longer run simply takes another call.
_BSP_ROUNDS_PER_CALL = 1024

_I64P = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_F64P = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_U8P = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")
_i64 = ctypes.c_int64
_f64 = ctypes.c_double


def _bind(library_path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(library_path))
    lib.ppr_push.restype = _i64
    lib.ppr_push.argtypes = [
        _I64P, _I64P, _i64,           # offsets, neighbors, n
        _I64P, _i64,                  # seeds, num_seeds
        _f64, _f64, _i64,             # alpha, eps, optimized
        _F64P, _F64P,                 # p, r
        _U8P, _U8P, _U8P,             # in_p, in_r, queued
        _I64P, _I64P, _I64P,          # p_order, r_order, counters
    ]
    lib.ppr_bsp.restype = _i64
    lib.ppr_bsp.argtypes = [
        _I64P, _I64P, _i64,           # offsets, neighbors, n
        _f64, _f64, _i64, _i64,       # alpha, eps, optimized, max_rounds
        _F64P, _F64P, _U8P, _U8P,     # p, r, in_p, in_r
        _I64P, _I64P,                 # p_keys, r_keys
        _I64P, _I64P, _I64P,          # frontier, targets, sort_tmp
        _F64P, _U8P,                  # acc, mark
        _I64P, _I64P,                 # state, stats
    ]
    lib.nibble_bsp.restype = _i64
    lib.nibble_bsp.argtypes = [
        _I64P, _I64P, _i64,           # offsets, neighbors, n
        _f64, _i64,                   # eps, max_rounds
        _F64P, _I64P,                 # values, keys (two halves each)
        _I64P, _I64P, _I64P,          # frontier, targets, sort_tmp
        _F64P, _U8P,                  # acc, mark
        _I64P, _I64P,                 # state, stats
    ]
    lib.hkpr_bsp.restype = _i64
    lib.hkpr_bsp.argtypes = [
        _I64P, _I64P, _i64,           # offsets, neighbors, n
        _f64, _i64, _F64P, _i64,      # t, taylor_degree, scales, max_rounds
        _F64P, _F64P, _U8P, _I64P,    # p, r, in_p, p_keys
        _I64P, _I64P, _I64P,          # frontier, targets, sort_tmp
        _F64P, _U8P,                  # acc, mark
        _I64P, _I64P,                 # state, stats
    ]
    lib.endpoint_count.restype = _i64
    lib.endpoint_count.argtypes = [_I64P, _i64, _i64, _I64P, _I64P, _I64P, _I64P]
    lib.sweep_scan.restype = None
    lib.sweep_scan.argtypes = [_I64P, _I64P, _I64P, _I64P, _i64, _U8P, _I64P, _I64P]
    lib.walk_filter.restype = _i64
    lib.walk_filter.argtypes = [_I64P, _i64, _I64P, _i64, _I64P, _i64, _I64P, _I64P]
    lib.walk_advance.restype = _i64
    lib.walk_advance.argtypes = [
        _I64P, _I64P, _i64,           # offsets, neighbors, n
        _I64P, _i64,                  # current, n_lanes
        _I64P, _I64P, _F64P, _i64,    # active, vertices, uniforms, n_active
    ]
    return lib


def _as_i64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.int64)


def _check_ids(ids: np.ndarray, n: int) -> None:
    """The C loops index by vertex id unchecked: reject ids outside [0, n)."""
    if len(ids) and (ids.min() < 0 or ids.max() >= n):
        raise ValueError(f"vertex id out of range for a {n}-vertex graph")


def _seeded_graph(offsets, neighbors, seeds):
    """``(offsets, neighbors, seeds, n)`` as contiguous int64 arrays, the
    seeds checked against the ``n`` vertices."""
    offsets, neighbors, seeds = _as_i64(offsets), _as_i64(neighbors), _as_i64(seeds)
    n = len(offsets) - 1
    _check_ids(seeds, n)
    return offsets, neighbors, seeds, n


def _run_rounds(step, state: np.ndarray, max_rounds: int, width: int) -> np.ndarray:
    """Drive a resumable frontier kernel until its frontier (``state[0]``)
    empties or ``max_rounds`` rounds ran.  ``step(budget, stats)`` runs at
    most ``budget`` rounds, filling ``width`` counts per round into
    ``stats``, and returns how many ran.  Returns every round's counts."""
    chunks = [np.empty((0, width), dtype=np.int64)]
    done = 0
    while state[0] > 0 and done < max_rounds:
        budget = min(_BSP_ROUNDS_PER_CALL, max_rounds - done)
        stats = np.empty((budget, width), dtype=np.int64)
        rounds = step(budget, stats)
        chunks.append(stats[:rounds])
        done += rounds
    return np.concatenate(chunks)


class CKernels:
    """The kernel set backed by the compiled library (one per process)."""

    name = "c"

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib

    def ppr_push(self, offsets, neighbors, seeds, alpha, eps, optimized):
        offsets, neighbors, seeds, n = _seeded_graph(offsets, neighbors, seeds)
        p = np.zeros(n, dtype=np.float64)
        r = np.zeros(n, dtype=np.float64)
        in_p = np.zeros(n, dtype=np.uint8)
        in_r = np.zeros(n, dtype=np.uint8)
        queued = np.zeros(n, dtype=np.uint8)
        p_order = np.empty(n, dtype=np.int64)
        r_order = np.empty(n, dtype=np.int64)
        counters = np.zeros(4, dtype=np.int64)
        status = self._lib.ppr_push(
            offsets, neighbors, n,
            seeds, len(seeds),
            float(alpha), float(eps), 1 if optimized else 0,
            p, r, in_p, in_r, queued, p_order, r_order, counters,
        )
        if status != 0:
            raise MemoryError("C ppr_push kernel could not grow its queue")
        num_p, num_r = int(counters[0]), int(counters[1])
        p_keys = p_order[:num_p].copy()
        r_keys = r_order[:num_r].copy()
        return p_keys, p[p_keys], r_keys, r[r_keys], int(counters[2]), int(counters[3])

    def ppr_bsp(self, offsets, neighbors, seeds, alpha, eps, optimized, max_iterations):
        """Frontier-synchronous PR-Nibble from unique ascending ``seeds``.

        Returns ``(p_keys, p_values, r_keys, r_values, stats)``: keys
        ascending, and ``stats`` an int64 ``(rounds, 6)`` array of the
        per-round counts ``ppr_bsp`` documents, from which callers replay
        the numpy path's cost records.
        """
        offsets, neighbors, seeds, n = _seeded_graph(offsets, neighbors, seeds)
        p = np.zeros(n, dtype=np.float64)
        r = np.zeros(n, dtype=np.float64)
        in_p = np.zeros(n, dtype=np.uint8)
        in_r = np.zeros(n, dtype=np.uint8)
        p_keys = np.empty(n, dtype=np.int64)
        r_keys = np.empty(n, dtype=np.int64)
        frontier, targets, sort_tmp = np.empty((3, n), dtype=np.int64)
        acc = np.zeros(n, dtype=np.float64)
        mark = np.zeros(n, dtype=np.uint8)
        r[seeds] = 1.0 / len(seeds)
        in_r[seeds] = 1
        r_keys[: len(seeds)] = seeds
        # degree-0 seeds keep their residual but never push
        start = seeds[offsets[seeds + 1] > offsets[seeds]]
        frontier[: len(start)] = start
        state = np.asarray([len(start), 0, len(seeds)], dtype=np.int64)
        stats = _run_rounds(
            lambda budget, stats: self._lib.ppr_bsp(
                offsets, neighbors, n,
                float(alpha), float(eps), 1 if optimized else 0, budget,
                p, r, in_p, in_r, p_keys, r_keys, frontier, targets, sort_tmp,
                acc, mark, state, stats,
            ),
            state, max_iterations, 6,
        )
        p_keys = np.sort(p_keys[: state[1]])
        r_keys = np.sort(r_keys[: state[2]])
        return p_keys, p[p_keys], r_keys, r[r_keys], stats

    def nibble_bsp(self, offsets, neighbors, seeds, eps, max_iterations):
        """Frontier-synchronous Nibble from unique ascending ``seeds``.

        Returns ``(p_keys, p_values, stats)``: keys ascending, and
        ``stats`` an int64 ``(rounds, 5)`` array of the per-round counts
        ``nibble_bsp`` documents.
        """
        offsets, neighbors, seeds, n = _seeded_graph(offsets, neighbors, seeds)
        values = np.empty(2 * n, dtype=np.float64)
        keys = np.empty(2 * n, dtype=np.int64)
        frontier, targets, sort_tmp = np.empty((3, n), dtype=np.int64)
        acc = np.zeros(n, dtype=np.float64)
        mark = np.zeros(n, dtype=np.uint8)
        values[seeds] = 1.0 / len(seeds)
        keys[: len(seeds)] = seeds
        frontier[: len(seeds)] = seeds  # degree-0 seeds included
        state = np.asarray([len(seeds), 0, len(seeds)], dtype=np.int64)
        stats = _run_rounds(
            lambda budget, stats: self._lib.nibble_bsp(
                offsets, neighbors, n, float(eps), budget, values, keys,
                frontier, targets, sort_tmp, acc, mark, state, stats,
            ),
            state, max_iterations, 5,
        )
        base = int(state[1]) * n
        p_keys = np.sort(keys[base : base + state[2]])
        return p_keys, values[base + p_keys], stats

    def hkpr_bsp(self, offsets, neighbors, seeds, t, taylor_degree, scales):
        """Level-synchronous HK-PR from unique ascending ``seeds``; level
        ``j``'s threshold is ``scales[j] * d(v)``.

        Returns ``(p_keys, p_values, levels, stats)``: keys ascending,
        the last level index reached, and ``stats`` an int64
        ``(rounds, 5)`` array of the per-level counts ``hkpr_bsp``
        documents.
        """
        offsets, neighbors, seeds, n = _seeded_graph(offsets, neighbors, seeds)
        scales = np.ascontiguousarray(scales, dtype=np.float64)
        if len(scales) < taylor_degree:
            raise ValueError("need a threshold scale for every level")
        p = np.zeros(n, dtype=np.float64)
        r = np.empty(n, dtype=np.float64)
        in_p = np.zeros(n, dtype=np.uint8)
        p_keys, frontier, targets, sort_tmp = np.empty((4, n), dtype=np.int64)
        acc = np.zeros(n, dtype=np.float64)
        mark = np.zeros(n, dtype=np.uint8)
        r[seeds] = 1.0 / len(seeds)
        frontier[: len(seeds)] = seeds  # degree-0 seeds included
        state = np.asarray([len(seeds), 0, 0], dtype=np.int64)
        stats = _run_rounds(
            lambda budget, stats: self._lib.hkpr_bsp(
                offsets, neighbors, n, float(t), int(taylor_degree), scales, budget,
                p, r, in_p, p_keys, frontier, targets, sort_tmp, acc, mark,
                state, stats,
            ),
            state, taylor_degree, 5,
        )
        p_keys = np.sort(p_keys[: state[2]])
        return p_keys, p[p_keys], int(state[1]), stats

    def endpoint_count(self, n, walks):
        """The distinct vertices of ``walks`` ascending and each one's
        number of walks, for vertex ids in ``[0, n)``."""
        walks = _as_i64(walks)
        _check_ids(walks, n)
        tally = np.zeros(n, dtype=np.int64)
        vertices, counts, sort_tmp = np.empty((3, min(len(walks), n)), dtype=np.int64)
        distinct = self._lib.endpoint_count(
            walks, len(walks), n, tally, vertices, counts, sort_tmp
        )
        return vertices[:distinct], counts[:distinct]

    def sweep_scan(self, offsets, neighbors, ordered, degrees):
        offsets = _as_i64(offsets)
        neighbors = _as_i64(neighbors)
        ordered = _as_i64(ordered)
        degrees = _as_i64(degrees)
        _check_ids(ordered, len(offsets) - 1)
        n = len(ordered)
        members = np.zeros(len(offsets) - 1, dtype=np.uint8)
        volumes = np.empty(n, dtype=np.int64)
        cuts = np.empty(n, dtype=np.int64)
        self._lib.sweep_scan(offsets, neighbors, ordered, degrees, n, members, volumes, cuts)
        return volumes, cuts

    def walk_filter(self, offsets, current, active):
        offsets = _as_i64(offsets)
        current = _as_i64(current)
        active = _as_i64(active)
        active_out = np.empty(len(active), dtype=np.int64)
        vertices_out = np.empty(len(active), dtype=np.int64)
        kept = self._lib.walk_filter(
            offsets, len(offsets) - 1, current, len(current),
            active, len(active), active_out, vertices_out,
        )
        if kept < 0:
            raise ValueError("walk lane or vertex id out of range")
        return active_out[:kept], vertices_out[:kept]

    def walk_advance(self, offsets, neighbors, current, active, vertices, uniforms):
        offsets = _as_i64(offsets)
        active = _as_i64(active)
        vertices = _as_i64(vertices)
        uniforms = np.ascontiguousarray(uniforms, dtype=np.float64)
        if not len(active) == len(vertices) == len(uniforms):
            raise ValueError("walk_advance needs one vertex and one uniform per lane")
        status = self._lib.walk_advance(
            offsets, _as_i64(neighbors), len(offsets) - 1, current, len(current),
            active, vertices, uniforms, len(active),
        )
        if status < 0:
            raise ValueError("walk lane, vertex id or uniform out of range")


def build() -> CKernels:
    """Compile (or load from cache) and bind the C kernel set.

    Raises :class:`KernelBuildError` when no compiler is available or the
    build fails; callers treat that as "kernel unavailable".
    """
    cc = compiler()
    if cc is None:
        raise KernelBuildError(
            "no C compiler found (looked for cc, gcc, clang on PATH)"
        )
    try:
        return CKernels(_bind(_build_library(cc)))
    except OSError as error:  # dlopen failure on a stale/foreign artifact
        raise KernelBuildError(f"C kernel library failed to load: {error}") from error
