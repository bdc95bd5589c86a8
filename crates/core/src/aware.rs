//! The `dmtcpaware` programming interface (§3.1).
//!
//! Applications are normally unaware of DMTCP; those that want control can
//! use these calls, which mirror `dmtcpaware.a`:
//!
//! * [`is_running_under_dmtcp`] — test for the injected layer;
//! * [`request_checkpoint`] — ask the coordinator for a checkpoint;
//! * [`delay_checkpoints`] / [`allow_checkpoints`] — bracket a critical
//!   section during which checkpoints must not start;
//! * [`status`] — query generation/restart counters, the analogue of
//!   `dmtcpGetStatus` and the pre/post hook mechanism: a program that
//!   remembers the last generation it saw can run its own post-checkpoint
//!   or post-restart logic when the counter moves.

use crate::hijack::hijack_of;
use oskit::Kernel;

/// Status snapshot visible to an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DmtcpStatus {
    /// Completed checkpoint generation.
    pub generation: u64,
    /// Number of restarts this process has lived through.
    pub restarts: u64,
    /// Checkpoints currently delayed by a critical section?
    pub delayed: bool,
}

/// Is the calling process running under DMTCP?
pub fn is_running_under_dmtcp(k: &mut Kernel<'_>) -> bool {
    let pid = k.pid;
    hijack_of(k.w, pid).is_some()
}

/// Ask the coordinator to checkpoint the whole computation.
pub fn request_checkpoint(k: &mut Kernel<'_>) -> bool {
    let pid = k.pid;
    let Some(port) = hijack_of(k.w, pid).map(|h| h.root_port) else {
        return false;
    };
    crate::coord::request_checkpoint(k.w, k.sim, port);
    true
}

/// Enter a critical section: checkpoints are held off until the matching
/// [`allow_checkpoints`]. Nests.
pub fn delay_checkpoints(k: &mut Kernel<'_>) {
    let pid = k.pid;
    if let Some(h) = hijack_of(k.w, pid) {
        h.aware.delay_depth += 1;
    }
}

/// Leave a critical section.
pub fn allow_checkpoints(k: &mut Kernel<'_>) {
    let pid = k.pid;
    if let Some(h) = hijack_of(k.w, pid) {
        assert!(h.aware.delay_depth > 0, "unbalanced allow_checkpoints");
        h.aware.delay_depth -= 1;
    }
}

/// Query DMTCP status; `None` when not running under DMTCP.
pub fn status(k: &mut Kernel<'_>) -> Option<DmtcpStatus> {
    let pid = k.pid;
    hijack_of(k.w, pid).map(|h| DmtcpStatus {
        generation: h.gen,
        restarts: h.restarts,
        delayed: h.aware.delay_depth > 0,
    })
}
