"""Values made in forked children: the one owner of fork, pipe, result and
reaping.

Inside `with forking() as fork:`, fork(what, fn, *args) forks a child that
runs fn(*args), sends the outcome (the value fn returned or the Exception
it raised) pickled through its own pipe, and leaves with os._exit, so it
never runs the caller's clean-up or flushes the buffers it inherited.
Every child is reaped when the block ends. A block that raises needs no
result, so its children are killed first and it does not wait for them.
Where os has no fork, fn runs in this process at the fork call. The pickles
loaded here are written only by this package's own children.
"""

from __future__ import annotations

import os
import pickle
from contextlib import contextmanager


def _outcome(fn, args) -> tuple:
    """(True, fn(*args)), or (False, the error) if fn raises."""
    try:
        return True, fn(*args)
    except Exception as exc:
        return False, exc


class Child:
    """fn(*args), made in a child forked from this process; `what` names
    the child in the error raised when it ends without a result."""

    def __init__(self, what: str, fn, args: tuple):
        self.what = what
        self.pid = self._pipe = self._outcome = None
        if not hasattr(os, "fork"):
            self._outcome = _outcome(fn, args)
            return
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:
            status = 1
            try:
                os.close(read_end)
                with open(write_end, "wb") as pipe:
                    pipe.write(pickle.dumps(_outcome(fn, args)))
                status = 0
            finally:
                os._exit(status)
        # closed before any later fork, so only this child holds the write
        # end and the read end sees EOF once this child is done
        os.close(write_end)
        self.pid, self._pipe = pid, open(read_end, "rb")

    def result(self):
        """fn's value, once the child has sent it; the error fn raised is
        raised here, with its type and message. ChildProcessError if the
        child ended without an outcome."""
        if self._outcome is None:
            data = self._pipe.read()
            if not data:
                raise ChildProcessError(f"{self.what} ended without a result")
            self._outcome = pickle.loads(data)
        ok, value = self._outcome
        if not ok:
            raise value
        return value

    def _reap(self, kill: bool) -> None:
        if self.pid is None:
            return
        self._pipe.close()
        if kill:
            import signal  # here, so that importing the package does not load it

            os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


@contextmanager
def forking():
    """Yield fork(what, fn, *args) -> Child, for children that live no
    longer than the with block."""
    children = []

    def fork(what: str, fn, *args) -> Child:
        children.append(Child(what, fn, args))
        return children[-1]

    done = False
    try:
        yield fork
        done = True
    finally:
        for child in children:
            child._reap(kill=not done)
