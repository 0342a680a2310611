"""Checks on the SAM the server returns for one request."""

HIT_CAP = 64  # PipelineConfig::max_hits_per_read, the server's per-read SAM cap


def check_sam(sam, truth, cap=HIT_CAP):
    """'' when `sam` answers the request described by `truth`, else why not.

    Every read of the request must be listed. A read drawn from the reference
    must be mapped at its true position and strand unless it is listed with
    `cap` hits (it may have more, and the cap cuts the list). An absent read
    must be reported unmapped."""
    hits = {}
    for line in sam.split(b"\n"):
        if not line or line[:1] == b"@":
            continue
        fields = line.split(b"\t", 4)
        if len(fields) < 5:
            return f"short SAM line {line[:60]!r}"
        hits.setdefault(fields[0], []).append((int(fields[1]), int(fields[3])))
    if len(hits) != len(truth.names):
        return f"{len(hits)} reads listed, {len(truth.names)} sent"
    for name, origin in zip(truth.names, truth.origins):
        lines = hits.get(name.encode())
        if lines is None:
            return f"read {name} missing"
        if origin is None:
            if lines != [(4, 0)]:
                return f"absent read {name} reported mapped"
            continue
        pos, reverse = origin
        want = (16 if reverse else 0, pos + 1)
        if want not in lines and len(lines) < cap:
            return f"read {name} not at its origin {want}"
    return ""


def sam_counts(sam):
    """(reads, mapped reads, mapped SAM lines) of a SAM document."""
    reads = set()
    mapped = set()
    lines = 0
    for line in sam.split(b"\n"):
        if not line or line[:1] == b"@":
            continue
        name, flag, _ = line.split(b"\t", 2)
        reads.add(name)
        if not int(flag) & 4:
            mapped.add(name)
            lines += 1
    return len(reads), len(mapped), lines
