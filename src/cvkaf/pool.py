"""One fork pool, :func:`deal`: ``compare`` deals it the runs of a stage, and
``evaluate`` the row chunks of a split."""

from __future__ import annotations

import multiprocessing
import os
import signal


def usable_cpus() -> int:
    """How many CPUs this process may run on: the processes a command deals its work over."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _helper(send, fn, items) -> None:
    """A forked process's share: its items' results in order, or what stopped them."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to handle
    try:
        send.send([fn(item) for item in items])
    except Exception as exc:  # such as an unwritable run directory: the caller fails on it
        send.send(exc)


def deal(fn, items, processes: int, name: str) -> list:
    """``[fn(item) for item in items]``, with item i computed in process i mod n.

    n is ``processes`` or the item count, whichever is fewer (1 without the
    ``fork`` start method). Process 0 is this one; the others are helpers forked
    from it, so they share its memory (a loaded cache, a model) without a copy,
    and only their results or an exception travel back (forking needs that the
    caller runs no thread of its own; cvkaf starts none). The deal is fixed, so a
    failing or slow item repeats in the same process. A helper that ends before
    it reports is a ``RuntimeError`` naming it after ``name``. No helper outlives
    the call, whether it ends normally, on an error or on Ctrl-C.
    """
    items = list(items)
    forks = "fork" in multiprocessing.get_all_start_methods()
    n = max(1, min(processes, len(items))) if forks else 1
    results = [None] * len(items)
    helpers = []
    try:
        for k in range(1, n):
            context = multiprocessing.get_context("fork")
            receive, send = context.Pipe(duplex=False)
            helper = context.Process(target=_helper, args=(send, fn, items[k::n]))
            helper.start()
            send.close()  # so the pipe ends when the helper does
            helpers.append((helper, receive))
        results[0::n] = [fn(item) for item in items[0::n]]
        for k, (helper, receive) in enumerate(helpers, 1):
            try:
                reply = receive.recv()
            except EOFError:
                helper.join()
                raise RuntimeError(f"{name} helper {k} of {n - 1} ended with exit code "
                                   f"{helper.exitcode} before reporting") from None
            if isinstance(reply, Exception):
                raise reply
            results[k::n] = reply
    finally:
        for helper, receive in helpers:
            helper.terminate()
            helper.join()
            receive.close()
    return results
