"""Start the benchmark's invocations from a process that stays small.

Usage: python3 perfbench/spawner.py, then one JSON job per stdin line:
{"cmd": [...], "env": {...}, "cwd": ..., "stdout": path, "stderr": path,
"timeout": seconds}. For each job it prints one JSON line:
{"code": exit code, "elapsed": wall seconds, "maxrss_kb": peak RSS}.

Linux counts the resident set of the parent's address space at fork and
exec into the child's ru_maxrss. Children started by run.py itself, which
holds numpy, advclf and parsed inputs, would report run.py's memory instead
of their own. This process imports only the standard library, so the peak
RSS it reports is the invocation's own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(job):
    with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(job["cmd"], stdout=out, stderr=err, env=job["env"], cwd=job["cwd"])
        timer = threading.Timer(job["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        elapsed = time.perf_counter() - start
    return {"code": proc.returncode, "elapsed": elapsed, "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
