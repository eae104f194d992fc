//! The per-thread calling-context cursor.
//!
//! The paper's call-path caching (§4.1) caches a thread's Python path at
//! operator entry, so a kernel launch need not walk the interpreter
//! stack. The cursor extends that cache to the whole call-path prefix:
//! each live operator holds the interned frames a launch under it starts
//! with — the Python frames (or, for backward operators, the associated
//! forward context) followed by every enclosing operator frame. The
//! prefix only changes when an operator enters or exits, so it is built
//! once there and a launch copies it, appending just the unwound native
//! tail, the GPU API frame and the kernel frame.
//!
//! Memory is proportional to the live operator depth: an entry is
//! dropped when its operator exits.

use std::sync::Arc;

use deepcontext_core::{Frame, Interner, OpPhase};
use dl_framework::OpEvent;
use sim_runtime::{PyFrameInfo, PythonStack};

use crate::integrate::ShadowOp;

/// One live operator on a thread.
#[derive(Debug, Clone)]
pub(crate) struct CursorEntry {
    /// Canonical operator name (feeds the reference builder).
    pub name: Arc<str>,
    /// Forward or backward.
    pub phase: OpPhase,
    /// Autograd sequence id, if taped.
    pub seq_id: Option<u64>,
    /// Native stack depth when the operator was entered.
    pub native_depth: usize,
    /// The deepest `native_depth` of this entry and every enclosing one.
    /// When it exceeds `native_depth`, an enclosing operator sits below
    /// this one on the native stack and launch paths must interleave
    /// operators with native frames by depth.
    pub peak_depth: usize,
    /// `PythonStack::version()` when the operator was entered.
    pub py_version: u64,
    /// The thread's Python stack when the operator was entered.
    pub python: Arc<[PyFrameInfo]>,
    /// How many leading `prefix` frames are the Python (or associated
    /// forward) context rather than operator frames.
    pub py_len: usize,
    /// The unified path when this operator is innermost and no native
    /// frames are collected: the context frames, then every operator
    /// frame from the outermost to this one.
    pub prefix: Arc<[Frame]>,
    /// The forward context this operator recovered through its sequence
    /// id (outermost backward operators only).
    pub assoc: Option<Arc<[Frame]>>,
}

impl CursorEntry {
    /// This entry as the reference builder's shadow-stack operator.
    pub fn shadow_op(&self) -> ShadowOp {
        ShadowOp {
            name: Arc::clone(&self.name),
            phase: self.phase,
            seq_id: self.seq_id,
            native_depth: self.native_depth,
        }
    }
}

/// A thread's cursor: its live operators plus the interned form of its
/// Python stack at the version last seen.
#[derive(Debug, Default)]
pub(crate) struct ThreadCursor {
    py_version: Option<u64>,
    python: Arc<[PyFrameInfo]>,
    py_frames: Arc<[Frame]>,
    /// Live operators, outermost first.
    pub entries: Vec<CursorEntry>,
}

impl ThreadCursor {
    /// The interned Python frames of `stack`, walked and interned again
    /// only when the stack's version moved since they were last derived.
    pub fn python_frames(&mut self, stack: &PythonStack, interner: &Interner) -> &Arc<[Frame]> {
        // Read the version before walking: a concurrent change then
        // costs a re-walk next time, never a stale memo.
        let version = stack.version();
        if self.py_version != Some(version) {
            let python: Arc<[PyFrameInfo]> = stack.walk().into();
            self.py_frames = python
                .iter()
                .map(|f| Frame::python(&f.file, f.line, &f.function, interner))
                .collect();
            self.python = python;
            self.py_version = Some(version);
        }
        &self.py_frames
    }

    /// Whether the outermost live operator recovered a forward context.
    pub fn associated(&self) -> bool {
        self.entries.first().is_some_and(|e| e.assoc.is_some())
    }

    /// Pushes the operator `event` enters. `assoc` is the forward context
    /// it recovered, when it is an outermost backward operator.
    pub fn enter(&mut self, event: &OpEvent, assoc: Option<Arc<[Frame]>>, interner: &Interner) {
        let op = Frame::operator_with(&event.name, event.phase, event.seq_id, interner);
        let native_depth = event.thread.native().depth();
        self.python_frames(event.thread.python(), interner);
        let py_version = self.py_version.expect("derived above");
        let associated = self.associated();
        let (prefix, py_len) = match (self.entries.last(), &assoc) {
            (_, Some(context)) => (extend(context, &[], &op), context.len()),
            // Same context as the enclosing operator: one frame deeper.
            (Some(parent), None) if associated || parent.py_version == py_version => {
                (extend(&parent.prefix, &[], &op), parent.py_len)
            }
            // The Python stack moved since the enclosing operator entered.
            (Some(parent), None) => (
                extend(&self.py_frames, &parent.prefix[parent.py_len..], &op),
                self.py_frames.len(),
            ),
            (None, None) => (extend(&self.py_frames, &[], &op), self.py_frames.len()),
        };
        let peak_depth = self
            .entries
            .last()
            .map_or(native_depth, |parent| parent.peak_depth.max(native_depth));
        self.entries.push(CursorEntry {
            name: Arc::clone(&event.name),
            phase: event.phase,
            seq_id: event.seq_id,
            native_depth,
            peak_depth,
            py_version,
            python: Arc::clone(&self.python),
            py_len,
            prefix,
            assoc,
        });
    }

    /// The forward context a backward operator with the innermost
    /// entry's sequence id recovers: the Python stack at its entry, then
    /// every live operator rendered as a forward instance.
    pub fn association_record(&self) -> Arc<[Frame]> {
        let inner = self.entries.last().expect("an operator is live");
        if self.entries.iter().all(|e| e.phase == OpPhase::Forward) {
            // The common case: the record is exactly the prefix.
            return Arc::clone(&inner.prefix);
        }
        let ops = self.entries.iter().map(|e| match e.prefix.last() {
            Some(&Frame::Operator { name, seq_id, .. }) => Frame::Operator {
                name,
                phase: OpPhase::Forward,
                seq_id,
            },
            _ => unreachable!("a prefix ends with its operator frame"),
        });
        self.py_frames.iter().cloned().chain(ops).collect()
    }
}

/// `head ++ middle ++ [last]` in one allocation.
fn extend(head: &[Frame], middle: &[Frame], last: &Frame) -> Arc<[Frame]> {
    head.iter()
        .chain(middle)
        .chain(std::iter::once(last))
        .cloned()
        .collect()
}
