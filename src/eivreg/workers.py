"""Forked worker processes for the Monte Carlo harness.

A run on more than one worker forks one child per share of its
replications, once.  The child fills its share's outcome rows at each n
and sends them down its pipe in one message per n: a tag byte, then the
raw bytes of the share's int8 codes and float64 values.  A child that
fails sends a tag and its pickled exception instead, then leaves by
``os._exit``.  The parent reads each message straight into the share's
rows of its own outcome columns.

Only a run on more than one worker imports this module, so a one-process
run neither loads nor compiles it.  It needs POSIX, as ``os.fork`` does.
"""

from __future__ import annotations

import fcntl
import os
import pickle
import signal
from typing import Iterator

__all__ = ["Worker"]

# The tag before each message: a share's codes and values at one n
# follow, or the pickled exception that stopped the child.
_SHARE_TAG, _ERROR_TAG = b"S", b"E"

# A child's pipe is widened to this, where the platform allows, so that in
# a run of several n a child whose share comes later can run ahead of the
# parent: a default 64 KiB pipe holds 3855 replications of two values.
# 1 MiB is Linux's default limit for an unprivileged process.
_PIPE_BYTES = 1 << 20


def _send(outcomes: Iterator, read_fd: int, write_fd: int) -> None:
    """The whole life of a child: it writes each (codes, values) share of
    ``outcomes`` down its pipe, or the exception that stops it, then
    leaves by ``os._exit``.  It never returns into its caller and never
    flushes the stdio it inherited."""
    status = 1
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:
            try:
                for codes, values in outcomes:
                    pipe.write(_SHARE_TAG)
                    pipe.write(codes)
                    pipe.write(values)
                    pipe.flush()
            except BaseException as exc:  # an interrupt too: the parent raises it
                pipe.write(_ERROR_TAG + pickle.dumps(exc))
        status = 0
    finally:
        os._exit(status)


def _ending(status: int) -> str:
    """How a child with wait status ``status`` ended."""
    code = os.waitstatus_to_exitcode(status)
    return f"killed by signal {-code}" if code < 0 else f"exit status {code}"


class Worker:
    """A forked child that runs ``outcomes``, an iterator of (codes,
    values) shares, one per n, that only the child advances, and the
    reading end of the pipe it sends them down."""

    def __init__(self, outcomes: Iterator):
        read_fd, write_fd = os.pipe()
        try:
            fcntl.fcntl(read_fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except (AttributeError, OSError):  # no such option, or a lower limit
            pass
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            _send(outcomes, read_fd, write_fd)
        os.close(write_fd)
        self.pipe = open(read_fd, "rb")
        self.status = None  # the child's wait status, once reaped

    def receive(self, codes, values) -> None:
        """Read the child's next share into the rows ``codes`` and
        ``values``; raise the exception the child sent, or OSError if it
        ended without sending one."""
        tag = self.pipe.read(1)
        if tag == _ERROR_TAG:
            raise pickle.loads(self.pipe.read())
        if tag != _SHARE_TAG or any(self.pipe.readinto(rows) != rows.nbytes
                                    for rows in (codes, values)):
            raise OSError(f"a worker process ended without its replications "
                          f"({_ending(self.reap())})")

    def reap(self, kill: bool = False) -> int:
        """Wait for the child, killed first if ``kill``, once; its wait status."""
        if self.status is None:
            if kill:
                os.kill(self.pid, signal.SIGKILL)
            self.pipe.close()
            self.status = os.waitpid(self.pid, 0)[1]
        return self.status
