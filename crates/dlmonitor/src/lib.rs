//! DLMonitor — the "shim" layer between profilers and deep learning
//! frameworks (paper §4.1).
//!
//! DLMonitor converts framework-specific data into a framework-agnostic
//! format and assembles **unified call paths** spanning Python frames,
//! framework operators, native C/C++ frames, GPU APIs and GPU kernels.
//! The public API mirrors the paper's:
//!
//! * [`DlMonitor::init`] — `dlmonitor_init`: creates the monitor
//!   (the `LD_PRELOAD`-time initialisation);
//! * [`DlMonitor::callback_register`] — `dlmonitor_callback_register`:
//!   registers profiler callbacks for a [`Domain`]
//!   (`DLMONITOR_FRAMEWORK` / `DLMONITOR_GPU`);
//! * [`DlMonitor::callpath_get`] — `dlmonitor_callpath_get`: builds the
//!   multi-layer call path for a thread, honouring the configured
//!   [`CallPathSources`];
//! * [`DlMonitor::finalize`] — `dlmonitor_finalize`: detaches every
//!   interception.
//!
//! Two paper optimisations are implemented and measurable:
//!
//! * **Forward/backward operator association** — forward operators record
//!   their Python/framework context under their autograd sequence id;
//!   backward operators executing on the dedicated backward thread (which
//!   has *no* Python stack) recover it by sequence-id lookup when the
//!   outermost one enters. Records retire as backward passes replay
//!   them, so the table does not grow with the number of iterations;
//! * **Call path caching** — with caching on, kernel-launch call paths
//!   need only a partial native unwind (or none, if native collection is
//!   off). The unwinder's global step counter quantifies the savings.
//!
//! # The calling-context cursor
//!
//! The paper caches the Python call path at operator entry. DLMonitor
//! extends that cache to the whole call-path prefix: each thread keeps a
//! *cursor* with one entry per live operator, holding the operator's
//! interned frame, its native depth, the Python-stack version it entered
//! at, and a shared prefix — the Python frames (or the recovered forward
//! context) followed by every enclosing operator frame. Python frames are
//! walked and interned again only when the thread's Python stack version
//! changed. A launch path is then one copy of the innermost prefix, plus
//! the native frames unwound below that operator (native mode only), the
//! GPU API frame (memoised per API kind and vendor) and the kernel frame.
//! A forward operator's association record is one clone of its prefix.
//!
//! [`DlMonitor::callpath_reference`] keeps the general algorithm —
//! snapshot the shadow stack, pick the Python source, unwind, and merge
//! with [`integrate_call_path`]. It is the test oracle the cursor must
//! match exactly, and it still builds the paths that are not "prefix +
//! native tail":
//!
//! * the cache switched off (the §4.1 ablation), where every path walks
//!   the Python stack and unwinds in full;
//! * source selections without Python or framework frames;
//! * native collection under a backward association (or under operators
//!   entered out of native-depth order), where operators interleave with
//!   native frames by their recorded depths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cursor;
mod custom;
mod integrate;
mod monitor;

pub use custom::{CustomHook, CustomInterceptor};
pub use integrate::{integrate_call_path, IntegrationInput, ShadowOp};
pub use monitor::{
    CallPathSources, DlEvent, DlMonitor, Domain, EventOrigin, GpuCallbackEvent, MonitorStats,
    RegistrationId,
};
