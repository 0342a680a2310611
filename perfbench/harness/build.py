"""Builds the commit's `bwaver` and the layer replay from source."""

import hashlib
import os
import subprocess

JOBS = str(min(4, os.cpu_count() or 1))
BUILD_TIMEOUT_S = 850


def _run(argv, log_path):
    # The compiler's temporary files stay inside the work directory too.
    tmp = os.path.join(os.path.dirname(log_path), "tmp")
    os.makedirs(tmp, exist_ok=True)
    with open(log_path, "ab") as log:
        subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT, check=True,
                       timeout=BUILD_TIMEOUT_S, env={**os.environ, "TMPDIR": tmp})


def _cmake(source, build_dir, log_path, *defines):
    # A configure that failed leaves no Makefile behind, so it is retried.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        _run(["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release", *defines],
             log_path)


def bwaver(root, work):
    """Release build of the `bwaver` target; returns (binary, build dir)."""
    if not os.path.exists(os.path.join(root, "CMakeLists.txt")):
        raise RuntimeError(f"no CMakeLists.txt in {root}: nothing to build")
    build_dir = os.path.join(work, "cmake")
    log = os.path.join(work, "build.log")
    _cmake(root, build_dir, log)
    _run(["cmake", "--build", build_dir, "--target", "bwaver", "-j", JOBS], log)
    binary = os.path.join(build_dir, "src", "app", "bwaver")
    if not os.access(binary, os.X_OK):
        raise RuntimeError(f"build produced no {binary}")
    return binary, build_dir


def replay(root, work, bwaver_build_dir):
    """The layer replay linked against the libraries of `bwaver_build_dir`;
    None when it does not build (the per-layer replay numbers are then lost,
    the end-to-end ones are not)."""
    build_dir = os.path.join(work, "replay")
    log = os.path.join(work, "replay-build.log")
    try:
        _cmake(os.path.join(root, "perfbench", "replay"), build_dir, log,
               f"-DBWAVER_SOURCE_DIR={root}", f"-DBWAVER_BUILD_DIR={bwaver_build_dir}")
        _run(["cmake", "--build", build_dir, "-j", JOBS], log)
    except subprocess.SubprocessError:
        return None
    return os.path.join(build_dir, "bwaver_replay")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]
