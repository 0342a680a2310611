"""Parsers for the /proc files the benchmark samples."""

import os

CLK_TCK = os.sysconf("SC_CLK_TCK")


def read(path):
    with open(path) as f:
        return f.read()


def cpu_ticks(stat_text):
    """utime + stime from /proc/<pid>/stat, in clock ticks.

    The command name (field 2) may hold spaces and parentheses, so fields are
    counted from the last ')'."""
    rest = stat_text[stat_text.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    return int(rest[11]) + int(rest[12])


def memory_kb(status_text):
    """{'VmHWM': kB, 'VmRSS': kB} from /proc/<pid>/status."""
    out = {}
    for line in status_text.splitlines():
        key, _, value = line.partition(":")
        if key in ("VmHWM", "VmRSS"):
            out[key] = int(value.split()[0])
    return out


def steal_ticks(proc_stat_text):
    """Aggregate steal ticks from the first line of /proc/stat."""
    fields = proc_stat_text.splitlines()[0].split()
    if fields[0] != "cpu":
        raise ValueError("unexpected /proc/stat layout")
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) if len(fields) > 8 else 0


def cpu_flags(cpuinfo_text):
    for line in cpuinfo_text.splitlines():
        if line.startswith("flags"):
            return line.partition(":")[2].split()
    return []
