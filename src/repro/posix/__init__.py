"""The Linux port (Section 5's ongoing work, preliminary results).

Provides the two system-dependent pieces the paper's port had to
rewrite — a context (:mod:`context`) naming a libc export table
(:mod:`libc`) for the shared dispatch handler, and an init-style
supervisor (:mod:`initd`) in place of the SCM — plus the
Apache-on-Linux workload and a PID-based watchd.
The DTS core (fault lists, injector, campaign, collector) is reused
without modification.
"""

from .apache_linux import LinuxApacheChild, LinuxApacheMaster, LinuxWatchd
from .context import PosixContext
from .initd import InitSupervisor, get_supervisor
from .libc import LIBC_IMPLEMENTATIONS, LIBC_REGISTRY, injectable_libc_signatures
from .workload import APACHE1_LINUX, APACHE2_LINUX, LinuxWorkloadSpec

__all__ = [
    "LIBC_REGISTRY",
    "LIBC_IMPLEMENTATIONS",
    "injectable_libc_signatures",
    "PosixContext",
    "InitSupervisor",
    "get_supervisor",
    "LinuxApacheMaster",
    "LinuxApacheChild",
    "LinuxWatchd",
    "LinuxWorkloadSpec",
    "APACHE1_LINUX",
    "APACHE2_LINUX",
]
