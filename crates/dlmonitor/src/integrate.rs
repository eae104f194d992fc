//! The call-path integration algorithm (paper §4.1, "Call Path
//! Integration").
//!
//! DLMonitor "integrates these three call paths into a single
//! comprehensive call path. It traverses the native call path in a
//! bottom-up direction, matching the address of each frame with the
//! recorded addresses of deep learning operators. If a match is found,
//! DLMonitor inserts the operator name under the caller frame. If a
//! frame's address falls within the libpython.so address space, all
//! frames above it are replaced with the Python call path."
//!
//! This module implements that merge as a pure function over snapshots,
//! so it can be tested exhaustively without a live runtime.

use std::sync::Arc;

use deepcontext_core::{CallPath, Frame, Interner, OpPhase};
use sim_runtime::{NativeFrameInfo, PyFrameInfo};

/// One shadow-stack operator, as captured at operator entry.
#[derive(Debug, Clone)]
pub struct ShadowOp {
    /// Canonical operator name.
    pub name: Arc<str>,
    /// Forward or backward.
    pub phase: OpPhase,
    /// Autograd sequence id, if taped.
    pub seq_id: Option<u64>,
    /// Native stack depth when the operator was entered — the "memory
    /// location" marker used to place the operator among native frames.
    pub native_depth: usize,
}

/// Snapshots consumed by the integrator.
#[derive(Debug, Clone, Default)]
pub struct IntegrationInput {
    /// Python frames, root-first (empty when the source is disabled or
    /// the thread has no interpreter stack).
    pub python: Vec<PyFrameInfo>,
    /// Shadow operators, outermost first.
    pub operators: Vec<ShadowOp>,
    /// Native frames, root-first (empty when native collection is off).
    pub native: Vec<NativeFrameInfo>,
    /// Whether each native frame's PC lies in libpython (parallel to
    /// `native`; computed by the caller via the library map).
    pub native_is_python: Vec<bool>,
}

/// Merges the three per-thread call-path sources into one unified path.
///
/// The output is root-first: Python frames, then operators interleaved
/// with the native frames below them, by the recorded native depths.
pub fn integrate_call_path(input: &IntegrationInput, interner: &Interner) -> CallPath {
    let mut path = CallPath::new();

    // Python replaces everything at and above (toward the root) the
    // deepest libpython frame.
    let cutover = input
        .native_is_python
        .iter()
        .rposition(|is_py| *is_py)
        .map(|idx| idx + 1);

    for f in &input.python {
        path.push(Frame::python(&f.file, f.line, &f.function, interner));
    }

    let tail_start = match cutover {
        Some(idx) => idx,
        None if input.native.is_empty() => 0,
        // No libpython frame on this stack (e.g. a backward thread):
        // keep the whole native path.
        None => 0,
    };

    let mut ops = input.operators.iter().peekable();
    for (idx, frame) in input.native.iter().enumerate().skip(tail_start) {
        while ops.peek().map(|op| op.native_depth <= idx).unwrap_or(false) {
            let op = ops.next().expect("peeked");
            path.push(Frame::operator_with(
                &op.name, op.phase, op.seq_id, interner,
            ));
        }
        path.push(Frame::native(
            &frame.library,
            frame.pc,
            &frame.symbol,
            interner,
        ));
    }
    // Operators with no native frames below them (native collection off,
    // or the operator entered and no deeper native frame captured yet).
    for op in ops {
        path.push(Frame::operator_with(
            &op.name, op.phase, op.seq_id, interner,
        ));
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::FrameKind;

    fn py(file: &str, line: u32, f: &str) -> PyFrameInfo {
        PyFrameInfo::new(file, line, f)
    }

    fn native(lib: &str, pc: u64, sym: &str) -> NativeFrameInfo {
        NativeFrameInfo::new(lib, pc, sym)
    }

    fn op(name: &str, depth: usize) -> ShadowOp {
        ShadowOp {
            name: Arc::from(name),
            phase: OpPhase::Forward,
            seq_id: None,
            native_depth: depth,
        }
    }

    fn kinds(path: &CallPath) -> Vec<FrameKind> {
        path.frames().iter().map(|f| f.kind()).collect()
    }

    #[test]
    fn python_replaces_frames_at_and_above_libpython() {
        let interner = Interner::new();
        let input = IntegrationInput {
            python: vec![py("train.py", 3, "main"), py("model.py", 9, "forward")],
            operators: vec![op("aten::conv2d", 3)],
            native: vec![
                native("libc.so", 0x1, "__libc_start_main"),
                native("libpython3.11.so", 0x2, "_PyEval_EvalFrameDefault"),
                native("libpython3.11.so", 0x3, "_PyEval_EvalFrameDefault"),
                native("libtorch_cpu.so", 0x4, "c10::Dispatcher::call"),
                native("libtorch_cpu.so", 0x5, "at::native::conv2d"),
            ],
            native_is_python: vec![false, true, true, false, false],
        };
        let path = integrate_call_path(&input, &interner);
        let labels: Vec<_> = path
            .frames()
            .iter()
            .map(|f| f.short_label(&interner))
            .collect();
        assert_eq!(
            labels,
            vec![
                "train.py:3",
                "model.py:9",
                "aten::conv2d",
                "c10::Dispatcher::call",
                "at::native::conv2d"
            ]
        );
        assert_eq!(
            kinds(&path),
            vec![
                FrameKind::Python,
                FrameKind::Python,
                FrameKind::Operator,
                FrameKind::Native,
                FrameKind::Native
            ]
        );
    }

    #[test]
    fn without_libpython_native_path_is_kept_whole() {
        // A backward thread: no Python frames anywhere.
        let interner = Interner::new();
        let input = IntegrationInput {
            python: vec![],
            operators: vec![ShadowOp {
                name: Arc::from("aten::index"),
                phase: OpPhase::Backward,
                seq_id: Some(7),
                native_depth: 1,
            }],
            native: vec![
                native(
                    "libtorch_cpu.so",
                    0x10,
                    "torch::autograd::Engine::thread_main",
                ),
                native("libtorch_cpu.so", 0x11, "c10::Dispatcher::call"),
            ],
            native_is_python: vec![false, false],
        };
        let path = integrate_call_path(&input, &interner);
        let labels: Vec<_> = path
            .frames()
            .iter()
            .map(|f| f.short_label(&interner))
            .collect();
        assert_eq!(
            labels,
            vec![
                "torch::autograd::Engine::thread_main",
                "aten::index~bwd",
                "c10::Dispatcher::call"
            ]
        );
    }

    #[test]
    fn nested_operators_interleave_by_depth() {
        let interner = Interner::new();
        let input = IntegrationInput {
            python: vec![py("m.py", 1, "f")],
            operators: vec![op("aten::linear", 1), op("aten::matmul", 2)],
            native: vec![
                native("libpython3.11.so", 0x1, "_PyEval_EvalFrameDefault"),
                native("libtorch_cpu.so", 0x2, "at::native::linear"),
                native("libtorch_cpu.so", 0x3, "at::native::matmul"),
            ],
            native_is_python: vec![true, false, false],
        };
        let path = integrate_call_path(&input, &interner);
        let labels: Vec<_> = path
            .frames()
            .iter()
            .map(|f| f.short_label(&interner))
            .collect();
        assert_eq!(
            labels,
            vec![
                "m.py:1",
                "aten::linear",
                "at::native::linear",
                "aten::matmul",
                "at::native::matmul"
            ]
        );
    }

    #[test]
    fn native_source_disabled_appends_operators_after_python() {
        let interner = Interner::new();
        let input = IntegrationInput {
            python: vec![py("m.py", 1, "f")],
            operators: vec![op("aten::relu", 5)],
            native: vec![],
            native_is_python: vec![],
        };
        let path = integrate_call_path(&input, &interner);
        assert_eq!(kinds(&path), vec![FrameKind::Python, FrameKind::Operator]);
    }

    #[test]
    fn empty_input_yields_empty_path() {
        let interner = Interner::new();
        let path = integrate_call_path(&IntegrationInput::default(), &interner);
        assert!(path.is_empty());
    }
}
