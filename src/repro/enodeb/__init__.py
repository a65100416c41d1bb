"""The eNodeB: radio cell + control relay + X2 endpoint.

An eNodeB bridges three worlds: the air interface toward UEs (RRC/NAS
relay, measurement reports, PRB scheduling over its cell), the S1
interface toward whichever core serves it (carrier MME or local stub),
and the X2 interface toward peer eNodeBs (handover and the paper's dLTE
coordination extensions, §4.3).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cell": ("Cell",),
    "relay": ("EnbControlRelay",),
})
