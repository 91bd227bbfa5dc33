"""Shared test utilities: independent oracles and exhaustive generators."""

import os
import resource
import subprocess
import sys
import threading
from itertools import product
from math import gcd

import apsa
from apsa.core import APPerm, ap_detect
from apsa.lyndonlab import is_lyndon
from apsa.textindex import suffix_array


def naive_sa(text):
    """Second, independent suffix-array oracle: full suffix comparison sort."""
    return tuple(sorted(range(1, len(text) + 1), key=lambda i: text[i - 1 :]))


def naive_matrix_bwt(text):
    """Rotation-matrix BWT by brute force, ties broken by starting position."""
    n = len(text)
    doubled = text + text
    starts = sorted(range(n), key=lambda i: doubled[i : i + n])
    return "".join(text[i - 1] for i in starts)


def coprimes(n):
    return [k for k in range(1, n) if gcd(k, n) == 1]


def iter_ap_perms(n):
    """Every arithmetically progressed permutation descriptor of length n."""
    if n == 1:
        yield APPerm(1, 1, 1)
        return
    for k in coprimes(n):
        for p1 in range(1, n + 1):
            yield APPerm(n, k, p1)


def all_strings(sigma, length):
    alphabet = "abcdefghijklmnopqrstuvwxyz"[:sigma]
    for tup in product(alphabet, repeat=length):
        yield "".join(tup)


def ap_census(n, sigma):
    """Map each AP permutation to the set of length-n strings over sigma ranks
    whose (naive-oracle) suffix array materializes it.

    One pass over all sigma**n strings, so per-permutation brute forcing is
    not repeated.
    """
    buckets = {}
    for text in all_strings(sigma, n):
        perm = ap_detect(list(naive_sa(text)))
        if perm is not None:
            buckets.setdefault(perm, set()).add(text)
    return buckets


def smallest_period_reference(text):
    """Smallest period of `text` by the KMP failure function, or None when it is len(text).

    Pure Python and independent of any suffix array.
    """
    n = len(text)
    fail = [0] * (n + 1)
    j = 0
    for i in range(2, n + 1):
        while j and text[i - 1] != text[j]:
            j = fail[j]
        if text[i - 1] == text[j]:
            j += 1
        fail[i] = j
    period = n - fail[n]
    return period if period < n else None


def balanced2_cuts_reference(w, cuts=None):
    """The balanced2 tree by its recursive definition, without Duval.

    Returns the cut of every multi-character node, keyed by the node's word,
    or None when some node is not Lyndon or its two factorizations differ.
    The right cut starts the least proper suffix, the second suffix-array
    entry; the left cut ends the longest proper Lyndon prefix, found by
    scanning the prefixes from the longest down.  Recursive and cubic, so
    for short words only.
    """
    cuts = {} if cuts is None else cuts
    if len(w) == 1 or w in cuts:
        return cuts
    if not is_lyndon(w):
        return None
    right = suffix_array(w).sa[1] - 1
    left = next(m for m in range(len(w) - 1, 0, -1) if is_lyndon(w[:m]))
    if left != right:
        return None
    cuts[w] = left
    for part in (w[:left], w[left:]):
        if balanced2_cuts_reference(part, cuts) is None:
            return None
    return cuts


def balanced2_tree_cuts(tree):
    """The cut of every internal node of a balanced2 Factorization tree.

    Walks the tree with an explicit stack, since deep trees outgrow the
    recursion limit.
    """
    cuts, stack = {}, [tree]
    while stack:
        node = stack.pop()
        if node.children and node.word not in cuts:
            cuts[node.word] = len(node.factors[0])
            stack.extend(node.children)
    return cuts


def run_capped(code):
    """Run Python `code` in a child process capped at 1 GiB of address space.

    A call that tries to allocate an n-sized array at n ~ 4e9 fails inside
    the child instead of exhausting the machine's memory.  Returns the
    completed process with text stdout and stderr.
    """

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(os.path.abspath(apsa.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", code],
        preexec_fn=cap,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def run_measured(code, timeout=120):
    """Run Python `code` in a child process; return (returncode, output, peak RSS in MiB).

    The peak is the child's own VmHWM, which the child reads from
    /proc/self/status at exit and writes to a pipe.  VmHWM belongs to the
    child's address space and starts afresh at exec; ru_maxrss from wait4
    would start at this process's own high-water mark, whether the child is
    spawned by vfork or fork.  A child that exits without reporting (killed
    after `timeout` seconds, or by os._exit) raises RuntimeError.  The
    output is stdout and stderr together.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(apsa.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    report_r, report_w = os.pipe()
    # Registered first, so it runs after every handler the code registers.
    report = (
        "import atexit, os\n"
        "def _report_vmhwm():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        line = next(line for line in fh if line.startswith('VmHWM:'))\n"
        f"    os.write({report_w}, line.split()[1].encode())\n"
        "atexit.register(_report_vmhwm)\n"
    )
    with os.fdopen(report_r, "rb") as reported:
        try:
            proc = subprocess.Popen(
                [sys.executable, "-c", report + code],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                pass_fds=(report_w,),
            )
        finally:
            os.close(report_w)  # the child's copy is the only writer left
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
            proc.wait()
        finally:
            killer.cancel()
        kib = reported.read()
    if not kib:
        raise RuntimeError(f"child exited with {proc.returncode} and reported no peak RSS:\n{out}")
    return proc.returncode, out, int(kib) / 1024  # VmHWM is in kB
