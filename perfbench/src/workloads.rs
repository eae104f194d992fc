//! The three benchmark workloads: which models run, on which engine and
//! devices, under which profiler configuration.

use deepcontext_profiler::{ProfilerConfig, TimelineConfig};
use dl_models::{all_workloads, DlrmSmall, Gemma, Llama3, MultiStream, NanoGpt, UNet, Workload};
use sim_gpu::{DeviceSpec, SamplingConfig};

/// Which engine executes a workload's models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Eager (PyTorch-like) execution.
    Eager,
    /// JIT (JAX-like) execution: trace and compile once, execute per
    /// iteration.
    Jit,
}

impl Engine {
    /// Framework tag stamped into profile metadata.
    pub fn tag(self) -> &'static str {
        match self {
            Engine::Eager => "eager",
            Engine::Jit => "jit",
        }
    }
}

/// One model of a workload and the devices its test bed is built on.
pub struct Model {
    /// The paper workload.
    pub workload: Box<dyn Workload>,
    /// Devices of its test bed (device 0 runs the engines).
    pub devices: Vec<DeviceSpec>,
}

impl Model {
    fn on(workload: Box<dyn Workload>, device: DeviceSpec) -> Model {
        Model {
            workload,
            devices: vec![device],
        }
    }

    /// The model's name (`Workload::name`).
    pub fn name(&self) -> &'static str {
        self.workload.name()
    }
}

/// A named benchmark workload.
pub struct WorkloadSpec {
    /// The `--workload` name.
    pub name: &'static str,
    /// Engine every model runs on.
    pub engine: Engine,
    /// Models, in their canonical order (the seed permutes it).
    pub models: Vec<Model>,
    /// The profiler configuration as the workload ships it, with the
    /// timeline off; [`Rung::config`](crate::session::Rung::config)
    /// switches the timeline on for the rungs that record one.
    pub base_config: fn() -> ProfilerConfig,
    /// Whether a live view refreshes after every profiled iteration, as
    /// part of the loop (the workload's own rung is then L5, timeline
    /// and previews on; otherwise it is L3).
    pub live: bool,
    /// Timed base/profiled iteration pairs per model per episode. Fixed,
    /// so every episode's profile holds the same iterations.
    pub pairs: usize,
    /// Live-view refreshes probed after the loop, each after one more
    /// profiled iteration, on workloads without a live view in the loop.
    pub probes: usize,
}

/// Untimed iterations run while setting a session up.
pub const WARMUP_ITERATIONS: usize = 2;

/// Every workload name, in the order `--workload` documents them.
pub const NAMES: [&str; 3] = ["eager-coarse", "jit-fine", "live-analysis"];

fn deepcontext_config() -> ProfilerConfig {
    ProfilerConfig {
        timeline: TimelineConfig::default(),
        ..ProfilerConfig::deepcontext()
    }
}

fn native_sampling_config() -> ProfilerConfig {
    ProfilerConfig {
        instruction_sampling: Some(SamplingConfig::default()),
        timeline: TimelineConfig::default(),
        ..ProfilerConfig::deepcontext_native()
    }
}

fn default_config() -> ProfilerConfig {
    ProfilerConfig {
        timeline: TimelineConfig::default(),
        ..ProfilerConfig::default()
    }
}

impl WorkloadSpec {
    /// Looks a workload up by its `--workload` name.
    pub fn by_name(name: &str) -> Option<WorkloadSpec> {
        let spec = match name {
            // Fig. 6a: the ten paper workloads, eager, one A100, the
            // shipped DeepContext configuration.
            "eager-coarse" => WorkloadSpec {
                name: "eager-coarse",
                engine: Engine::Eager,
                models: all_workloads()
                    .into_iter()
                    .map(|w| Model::on(w, DeviceSpec::a100_sxm()))
                    .collect(),
                base_config: deepcontext_config,
                live: false,
                pairs: 12,
                probes: 4,
            },
            // §6.7 on the cross-vendor JIT path: native unwinding plus
            // PC sampling on one MI250.
            "jit-fine" => WorkloadSpec {
                name: "jit-fine",
                engine: Engine::Jit,
                models: vec![
                    Model::on(Box::new(Llama3), DeviceSpec::mi250()),
                    Model::on(Box::new(Gemma), DeviceSpec::mi250()),
                    Model::on(Box::new(NanoGpt), DeviceSpec::mi250()),
                ],
                base_config: native_sampling_config,
                live: false,
                pairs: 16,
                probes: 6,
            },
            // The read side: DLRM-small (§6.1), U-Net (§6.2/§6.4) and
            // two A100s × three streams, timeline on, live view in the
            // loop, full post-run chain.
            "live-analysis" => WorkloadSpec {
                name: "live-analysis",
                engine: Engine::Eager,
                models: vec![
                    Model::on(Box::new(DlrmSmall), DeviceSpec::a100_sxm()),
                    Model::on(Box::new(UNet), DeviceSpec::a100_sxm()),
                    Model {
                        workload: Box::new(MultiStream::default()),
                        devices: vec![DeviceSpec::a100_sxm(), DeviceSpec::a100_sxm()],
                    },
                ],
                base_config: default_config,
                live: true,
                pairs: 24,
                probes: 0,
            },
            _ => return None,
        };
        Some(spec)
    }
}
