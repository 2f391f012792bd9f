#include "flick/nxp_platform.hh"

#include "sim/logging.hh"

namespace flick
{

void
NxpPlatform::consumeInbox()
{
    if (_pending == 0)
        panic("inbox ACK with no pending descriptor");
    --_pending;
    _inboxAcks.inc();
}

std::uint64_t
NxpPlatform::mmioRead(Addr offset, unsigned len)
{
    (void)len;
    switch (offset) {
      case regStatus:
        _statusReads.inc();
        return _pending;
      default:
        panic("NxP control read at unknown offset %#llx",
              (unsigned long long)offset);
    }
}

void
NxpPlatform::mmioWrite(Addr offset, std::uint64_t value, unsigned len)
{
    (void)len;
    switch (offset) {
      case regAck:
        consumeInbox();
        break;
      case regBarRemap: {
        // The host driver computed barBase(device) - nxpDramLocalBase and
        // wrote it here; program the remap window into this device's NxP
        // TLBs (Section IV-A's worked example).
        if (!_nxpMmu)
            panic("BAR remap written before the NxP MMU was attached");
        const PlatformConfig &p = _mem.platform();
        _nxpMmu->setBarRemap(p.barBase(_device), p.deviceDramBytes(_device),
                             value);
        _stats.inc("bar_remap_writes");
        break;
      }
      default:
        panic("NxP control write at unknown offset %#llx",
              (unsigned long long)offset);
    }
}

} // namespace flick
