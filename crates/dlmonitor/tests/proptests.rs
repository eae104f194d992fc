//! Property tests for call-path construction.
//!
//! The integration algorithm: for any combination of Python stack,
//! shadow operator stack and native stack, the unified path preserves
//! ordering, loses no operators, and respects the libpython cutover.
//!
//! The calling-context cursor: under any interleaving of operator,
//! Python-stack and native-stack events, association resets and source
//! or cache reconfiguration, `DlMonitor::callpath_get` equals the
//! reference builder exactly.

use std::sync::Arc;

use deepcontext_core::{FrameKind, Interner, OpPhase, ThreadRole, TimeNs};
use dl_framework::{CallbackRegistry, OpEvent, Site};
use dlmonitor::{
    integrate_call_path, CallPathSources, DlMonitor, GpuCallbackEvent, IntegrationInput, ShadowOp,
};
use proptest::prelude::*;
use sim_gpu::{ApiKind, CallbackData, CallbackSite, CorrelationId, DeviceId, Vendor};
use sim_runtime::{NativeFrameInfo, PyFrameInfo, RuntimeEnv, ThreadCtx};

#[derive(Debug, Clone)]
struct Scenario {
    input: IntegrationInput,
    n_python: usize,
    n_operators: usize,
    n_native_tail: usize,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        0usize..6,       // python frames
        0usize..4,       // operators
        0usize..8,       // native frames below the interpreter
        prop::bool::ANY, // whether an interpreter frame exists at all
    )
        .prop_map(|(n_py, n_ops, n_native, has_interp)| {
            let python: Vec<PyFrameInfo> = (0..n_py)
                .map(|i| PyFrameInfo::new("model.py", i as u32, "fn"))
                .collect();
            let mut native = Vec::new();
            let mut native_is_python = Vec::new();
            if has_interp {
                native.push(NativeFrameInfo::new(
                    "libpython3.11.so",
                    0x1,
                    "_PyEval_EvalFrameDefault",
                ));
                native_is_python.push(true);
            }
            let base = native.len();
            for i in 0..n_native {
                native.push(NativeFrameInfo::new(
                    "libtorch.so",
                    0x100 + i as u64,
                    "impl",
                ));
                native_is_python.push(false);
            }
            // Operators anchored at increasing depths within the tail.
            let operators: Vec<ShadowOp> = (0..n_ops)
                .map(|i| ShadowOp {
                    name: Arc::from(format!("aten::op{i}")),
                    phase: if i % 2 == 0 {
                        OpPhase::Forward
                    } else {
                        OpPhase::Backward
                    },
                    seq_id: Some(i as u64),
                    native_depth: base + (i * n_native.max(1) / n_ops.max(1)),
                })
                .collect();
            Scenario {
                input: IntegrationInput {
                    python,
                    operators,
                    native,
                    native_is_python,
                },
                n_python: n_py,
                n_operators: n_ops,
                n_native_tail: n_native,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn integration_preserves_counts_and_order(scenario in arb_scenario()) {
        let interner = Interner::new();
        let path = integrate_call_path(&scenario.input, &interner);
        let kinds: Vec<FrameKind> = path.frames().iter().map(|f| f.kind()).collect();

        // Counts: every python frame, every operator, and every native
        // frame below the cutover appears exactly once.
        let n_py = kinds.iter().filter(|k| **k == FrameKind::Python).count();
        let n_op = kinds.iter().filter(|k| **k == FrameKind::Operator).count();
        let n_native = kinds.iter().filter(|k| **k == FrameKind::Native).count();
        prop_assert_eq!(n_py, scenario.n_python);
        prop_assert_eq!(n_op, scenario.n_operators);
        prop_assert!(n_native <= scenario.n_native_tail + 1);

        // Ordering: all Python frames come before any operator or native
        // frame (Python is always the outermost layer).
        if let Some(first_non_py) = kinds.iter().position(|k| *k != FrameKind::Python) {
            prop_assert!(kinds[first_non_py..].iter().all(|k| *k != FrameKind::Python));
        }

        // Operators retain shadow-stack order.
        let op_labels: Vec<String> = path
            .frames()
            .iter()
            .filter(|f| f.kind() == FrameKind::Operator)
            .map(|f| f.short_label(&interner))
            .collect();
        let mut sorted = op_labels.clone();
        sorted.sort_by_key(|l| {
            l.trim_start_matches("aten::op")
                .trim_end_matches("~bwd")
                .parse::<u64>()
                .unwrap_or(0)
        });
        prop_assert_eq!(op_labels, sorted);
    }

    #[test]
    fn interpreter_frames_never_survive_integration(scenario in arb_scenario()) {
        let interner = Interner::new();
        let path = integrate_call_path(&scenario.input, &interner);
        // The libpython frame must be replaced by the Python source path.
        prop_assert!(path
            .frames()
            .iter()
            .all(|f| !f.label(&interner).contains("_PyEval_EvalFrameDefault")));
    }

    #[test]
    fn integration_is_deterministic(scenario in arb_scenario()) {
        let interner = Interner::new();
        let a = integrate_call_path(&scenario.input, &interner);
        let b = integrate_call_path(&scenario.input, &interner);
        prop_assert_eq!(a, b);
    }
}

/// One event of a random monitor session, on one of two threads.
#[derive(Debug, Clone)]
enum Step {
    OpEnter {
        thread: usize,
        op: u8,
        backward: bool,
        seq: Option<u64>,
    },
    OpExit {
        thread: usize,
    },
    PyPush {
        thread: usize,
        line: u32,
    },
    PyPop {
        thread: usize,
    },
    PySetLine {
        thread: usize,
        line: u32,
    },
    NativePush {
        thread: usize,
        python: bool,
        pc: u64,
    },
    NativePop {
        thread: usize,
    },
    ClearAssociations,
    Configure {
        sources: u8,
        cache: bool,
    },
}

fn arb_step() -> impl Strategy<Value = Step> {
    let thread = 0usize..2;
    prop_oneof![
        (thread.clone(), 0u8..3, prop::bool::ANY, 0u64..5).prop_map(
            |(thread, op, backward, seq)| Step::OpEnter {
                thread,
                op,
                backward,
                seq: (seq > 0).then_some(seq),
            }
        ),
        (thread.clone(), 0u8..3, prop::bool::ANY, 1u64..5).prop_map(
            |(thread, op, backward, seq)| Step::OpEnter {
                thread,
                op,
                backward,
                seq: Some(seq),
            }
        ),
        thread.clone().prop_map(|thread| Step::OpExit { thread }),
        (thread.clone(), 1u32..4).prop_map(|(thread, line)| Step::PyPush { thread, line }),
        thread.clone().prop_map(|thread| Step::PyPop { thread }),
        (thread.clone(), 1u32..4).prop_map(|(thread, line)| Step::PySetLine { thread, line }),
        (thread.clone(), prop::bool::ANY, 0u64..4)
            .prop_map(|(thread, python, pc)| { Step::NativePush { thread, python, pc } }),
        (thread.clone(), prop::bool::ANY, 0u64..4)
            .prop_map(|(thread, python, pc)| { Step::NativePush { thread, python, pc } }),
        thread.prop_map(|thread| Step::NativePop { thread }),
        Just(Step::ClearAssociations),
        (0u8..8, prop::bool::ANY).prop_map(|(sources, cache)| Step::Configure { sources, cache }),
    ]
}

/// A monitor attached to a bare framework callback registry, with two
/// simulated threads and a libpython mapping for the cutover.
struct Session {
    env: RuntimeEnv,
    registry: Arc<CallbackRegistry>,
    monitor: Arc<DlMonitor>,
    threads: [Arc<ThreadCtx>; 2],
    libpython_base: u64,
}

impl Session {
    fn new() -> Session {
        let env = RuntimeEnv::new();
        let libpython_base = env.load_library("/usr/lib/libpython3.11.so", 0x1000).base;
        let registry = CallbackRegistry::new();
        let monitor = DlMonitor::init(&env, Interner::new());
        monitor.attach_framework(&registry);
        let threads = [
            env.threads().spawn(ThreadRole::Main),
            env.threads().spawn(ThreadRole::Backward),
        ];
        Session {
            env,
            registry,
            monitor,
            threads,
            libpython_base,
        }
    }

    fn op_event(&self, thread: usize, site: Site, op: u8, backward: bool, seq: Option<u64>) {
        self.registry.fire_op(&OpEvent {
            name: Arc::from(format!("aten::op{op}")),
            phase: if backward {
                OpPhase::Backward
            } else {
                OpPhase::Forward
            },
            seq_id: seq,
            site,
            thread: Arc::clone(&self.threads[thread]),
            inputs: Vec::new(),
        });
    }

    fn apply(&self, step: &Step) {
        match *step {
            Step::OpEnter {
                thread,
                op,
                backward,
                seq,
            } => self.op_event(thread, Site::Enter, op, backward, seq),
            Step::OpExit { thread } => self.op_event(thread, Site::Exit, 0, false, None),
            Step::PyPush { thread, line } => self.threads[thread].python().push(PyFrameInfo::new(
                "model.py",
                line,
                &format!("f{line}"),
            )),
            Step::PyPop { thread } => {
                self.threads[thread].python().pop();
            }
            Step::PySetLine { thread, line } => self.threads[thread].python().set_line(line),
            Step::NativePush { thread, python, pc } => {
                let frame = if python {
                    NativeFrameInfo::new(
                        "libpython3.11.so",
                        self.libpython_base + pc,
                        "_PyEval_EvalFrameDefault",
                    )
                } else {
                    NativeFrameInfo::new("libtorch_cpu.so", 0x10 + pc, &format!("impl{pc}"))
                };
                self.threads[thread].native().push(frame);
            }
            Step::NativePop { thread } => {
                self.threads[thread].native().pop();
            }
            Step::ClearAssociations => self.monitor.clear_associations(),
            Step::Configure { sources, cache } => {
                self.monitor.set_sources(CallPathSources {
                    python: sources & 1 != 0,
                    framework: sources & 2 != 0,
                    native: sources & 4 != 0,
                });
                self.monitor.set_cache_enabled(cache);
            }
        }
    }

    /// A kernel-less GPU API interception on `thread`.
    fn gpu_event(&self, thread: usize, api: ApiKind, vendor: Vendor) -> GpuCallbackEvent {
        GpuCallbackEvent {
            data: CallbackData {
                site: CallbackSite::Enter,
                api,
                correlation_id: CorrelationId(1),
                device: DeviceId(0),
                stream: None,
                kernel: None,
                bytes: None,
                timestamp: TimeNs::ZERO,
            },
            vendor,
            thread: Some(Arc::clone(&self.threads[thread])),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cursor_paths_equal_the_reference_builder(
        steps in prop::collection::vec(arb_step(), 1..80),
        start_sources in 0u8..8,
        start_cache in prop::bool::ANY,
    ) {
        let session = Session::new();
        session.apply(&Step::Configure { sources: start_sources, cache: start_cache });
        let apis = [ApiKind::LaunchKernel, ApiKind::MemcpyAsync, ApiKind::MemAlloc];
        for (i, step) in steps.iter().enumerate() {
            session.apply(step);
            for (t, thread) in session.threads.iter().enumerate() {
                let reference = session.monitor.callpath_reference(thread);
                let unwinds = session.env.unwinder().steps_taken();
                let path = session.monitor.callpath_get(thread);
                let fast_steps = session.env.unwinder().steps_taken() - unwinds;
                prop_assert_eq!(&path, &reference, "thread {} after step {} {:?}", t, i, step);
                // The cursor unwinds exactly as far as the reference.
                let unwinds = session.env.unwinder().steps_taken();
                session.monitor.callpath_reference(thread);
                prop_assert_eq!(fast_steps, session.env.unwinder().steps_taken() - unwinds);

                let vendor = if i % 2 == 0 { Vendor::Nvidia } else { Vendor::Amd };
                let event = session.gpu_event(t, apis[i % apis.len()], vendor);
                prop_assert_eq!(
                    session.monitor.callpath_for_gpu(&event),
                    session.monitor.callpath_for_gpu_reference(&event)
                );
            }
        }
        for thread in &session.threads {
            prop_assert!(session.monitor.shadow_depth(thread.tid()) <= steps.len());
        }
    }
}

#[test]
fn association_renders_the_forward_operator_stack_as_forward() {
    // A taped forward operator nested in a backward one (no association
    // of its own): a backward operator with the forward one's sequence id
    // recovers the Python stack and every enclosing operator rendered as
    // a forward instance.
    let session = Session::new();
    session
        .monitor
        .set_sources(CallPathSources::without_native());
    session.apply(&Step::PyPush { thread: 0, line: 1 });
    session.op_event(0, Site::Enter, 0, true, None);
    session.op_event(0, Site::Enter, 1, false, Some(3));
    session.op_event(1, Site::Enter, 2, true, Some(3));
    let interner = session.monitor.interner();
    let labels: Vec<String> = session
        .monitor
        .callpath_get(&session.threads[1])
        .frames()
        .iter()
        .map(|f| f.short_label(&interner))
        .collect();
    assert_eq!(
        labels,
        ["model.py:1", "aten::op0", "aten::op1", "aten::op2~bwd"]
    );
    assert_eq!(
        session.monitor.callpath_get(&session.threads[1]),
        session.monitor.callpath_reference(&session.threads[1])
    );
}
