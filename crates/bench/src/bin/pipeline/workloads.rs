//! The five workloads: what each feeds the `oms` CLI, the equivalent
//! in-process job, and how its inputs are generated from the seed.

use oms_gen::{churn_trace, erdos_renyi_gnm, rmat_graph, ChurnConfig, ChurnScheme, RmatParams};
use oms_graph::io::{write_metis, write_stream_file};
use oms_graph::write_delta_trace;
use std::path::{Path, PathBuf};

/// What the job reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Input {
    /// The RMAT graph as METIS text.
    RmatMetis,
    /// The RMAT graph in the binary vertex-stream format.
    RmatStream,
    /// The ER graph in stream format plus a drift-scheme churn trace.
    ErStreamWithDeltas,
}

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the table header.
    pub why: &'static str,
    pub input: Input,
    /// CLI arguments; `{graph}`, `{deltas}` and `{out}` are replaced by the
    /// paths of the run.
    pub cli: &'static [&'static str],
    /// The same job as a `JobSpec` string, for the in-process traced run.
    pub spec: &'static str,
    pub k: u32,
    /// Hierarchy under which `J` is scored (with `D = 1:10:100`), also when
    /// the job itself is flat: that is how the paper scores Fennel and
    /// hashing for process mapping.
    pub hierarchy: &'static str,
    /// Candidates scored per node and pass, computed from the job: `k` for a
    /// flat job, `Σ aᵢ` for OMS on `a₁:…:aₗ`.
    pub candidates_per_node: u32,
}

/// Distances of every declared topology.
pub const DISTANCES: &str = "1:10:100";

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "metis_hashing_k1024",
        why: "No scoring: METIS text parse, CSR build and assignment write do all the work; bypasses every kernel change, exercises parser/ingest/egress changes.",
        input: Input::RmatMetis,
        cli: &["partition", "{graph}", "--job", "hashing:1024", "--output", "{out}"],
        spec: "hashing:1024",
        k: 1024,
        hierarchy: "4:16:16",
        candidates_per_node: 1024,
    },
    Workload {
        name: "fennel_k1024",
        why: "Flat O(k)-per-node kernel dominates: the baseline the paper compares against; select/penalty work in onepass shows here.",
        input: Input::RmatStream,
        cli: &["partition", "{graph}", "--job", "fennel:1024", "--output", "{out}"],
        spec: "fennel:1024",
        k: 1024,
        hierarchy: "4:16:16",
        candidates_per_node: 1024,
    },
    Workload {
        name: "oms_map_4x16x16",
        why: "The paper's algorithm on the paper's topology at the same k=1024: tree descent plus the cut and J stream passes; reads against fennel_k1024.",
        input: Input::RmatStream,
        cli: &[
            "map", "{graph}", "--hierarchy", "4:16:16", "--distances", "1:10:100", "--algo", "oms",
            "--output", "{out}",
        ],
        spec: "oms:4:16:16@dist=1:10:100",
        k: 1024,
        hierarchy: "4:16:16",
        candidates_per_node: 36,
    },
    Workload {
        name: "oms_restream_k64",
        why: "Same tree kernel at small fan-out with 4 passes: neighbour gather, unassign + re-descent and per-pass metric passes dominate, not select.",
        input: Input::RmatStream,
        cli: &["partition", "{graph}", "--job", "oms:4:4:4@passes=4", "--output", "{out}"],
        spec: "oms:4:4:4@passes=4",
        k: 64,
        hierarchy: "4:4:4",
        candidates_per_node: 12,
    },
    Workload {
        name: "dynamic_fennel_k32",
        why: "The flat kernel's third use (RepairSink point rescoring, admit/forget) and all of oms-dynamic: 60 churn batches with drift-triggered full restreams.",
        input: Input::ErStreamWithDeltas,
        cli: &[
            "apply-deltas", "{graph}", "{deltas}", "--k", "32", "--algo", "fennel", "--reference",
            "off", "--output", "{out}",
        ],
        spec: "fennel:32",
        k: 32,
        hierarchy: "2:4:4",
        candidates_per_node: 32,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Input sizes. The benchmark size is what fits the driver's budget (114
/// runs and two builds in 57 minutes): every job is 0.3–1 s, so a 10 s run
/// holds 8–25 reps. `quick` is a smoke size with the same metric names.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub quick: bool,
    rmat_scale: u32,
    er_nodes: usize,
    churn_ops_per_batch: usize,
}

/// RMAT edge factor and ER average-degree factor, as `oms generate` uses.
const RMAT_EDGE_FACTOR: usize = 8;
const ER_EDGE_FACTOR: usize = 4;
const CHURN_BATCHES: usize = 60;

impl Scale {
    pub fn new(quick: bool) -> Scale {
        if quick {
            Scale {
                quick,
                rmat_scale: 16,
                er_nodes: 50_000,
                churn_ops_per_batch: 625,
            }
        } else {
            Scale {
                quick,
                rmat_scale: 18,
                er_nodes: 200_000,
                churn_ops_per_batch: 2_500,
            }
        }
    }

    /// The word the `__setup` child is told its size with.
    pub fn word(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "bench"
        }
    }

    pub fn from_word(word: &str) -> Option<Scale> {
        match word {
            "quick" => Some(Scale::new(true)),
            "bench" => Some(Scale::new(false)),
            _ => None,
        }
    }
}

/// Where one run of one workload keeps its files.
pub struct Paths {
    pub dir: PathBuf,
    pub graph: PathBuf,
    pub deltas: PathBuf,
    pub out: PathBuf,
    pub cli_stdout: PathBuf,
}

impl Paths {
    pub fn new(work_root: &Path, workload: &Workload) -> Paths {
        let dir = work_root.join(workload.name);
        let graph = dir.join(match workload.input {
            Input::RmatMetis => "g.metis",
            Input::RmatStream | Input::ErStreamWithDeltas => "g.oms",
        });
        Paths {
            graph,
            deltas: dir.join("t.deltas"),
            out: dir.join("assignments.txt"),
            cli_stdout: dir.join("cli.stdout"),
            dir,
        }
    }

    /// The workload's CLI argument list with the placeholders filled in.
    pub fn cli_args(&self, workload: &Workload) -> Vec<String> {
        workload
            .cli
            .iter()
            .map(|arg| match *arg {
                "{graph}" => self.graph.display().to_string(),
                "{deltas}" => self.deltas.display().to_string(),
                "{out}" => self.out.display().to_string(),
                other => other.to_string(),
            })
            .collect()
    }
}

/// Generates the workload's inputs from `seed` and writes them. Runs in the
/// `__setup` child; the CLI sees only the files.
pub fn write_inputs(
    workload: &Workload,
    seed: u64,
    scale: Scale,
    paths: &Paths,
) -> Result<(), String> {
    std::fs::create_dir_all(&paths.dir).map_err(|e| e.to_string())?;
    let graph_err = |e: oms_graph::GraphError| e.to_string();
    match workload.input {
        Input::RmatMetis | Input::RmatStream => {
            let n = 1usize << scale.rmat_scale;
            let graph = rmat_graph(
                scale.rmat_scale,
                n * RMAT_EDGE_FACTOR,
                RmatParams::GRAPH500,
                seed,
            );
            if workload.input == Input::RmatMetis {
                write_metis(&graph, &paths.graph).map_err(graph_err)
            } else {
                write_stream_file(&graph, &paths.graph).map_err(graph_err)
            }
        }
        Input::ErStreamWithDeltas => {
            let graph = erdos_renyi_gnm(scale.er_nodes, scale.er_nodes * ER_EDGE_FACTOR, seed);
            write_stream_file(&graph, &paths.graph).map_err(graph_err)?;
            let config = ChurnConfig {
                scheme: ChurnScheme::CommunityDrift { communities: 8 },
                batches: CHURN_BATCHES,
                ops_per_batch: scale.churn_ops_per_batch,
                seed,
                ..ChurnConfig::default()
            };
            let trace = churn_trace(&graph, &config);
            write_delta_trace(&paths.deltas, &trace).map_err(graph_err)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_specs_match_the_declared_k() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            let job = oms_core::JobSpec::parse(w.spec).unwrap();
            assert_eq!(job.num_blocks(), w.k, "{}", w.name);
            let hierarchy = oms_core::HierarchySpec::parse(w.hierarchy).unwrap();
            assert_eq!(hierarchy.total_blocks(), w.k, "{}", w.name);
        }
    }

    #[test]
    fn placeholders_are_replaced() {
        let w = find("dynamic_fennel_k32").unwrap();
        let paths = Paths::new(Path::new("root"), w);
        let args = paths.cli_args(w);
        assert_eq!(args[1], "root/dynamic_fennel_k32/g.oms");
        assert_eq!(args[2], "root/dynamic_fennel_k32/t.deltas");
        assert!(args.iter().all(|a| !a.contains('{')));
    }

    #[test]
    fn same_seed_gives_the_same_input_bytes() {
        let w = find("dynamic_fennel_k32").unwrap();
        let root = std::env::temp_dir().join(format!("pipeline-test-{}", std::process::id()));
        let read = |sub: &str, seed| {
            let paths = Paths::new(&root.join(sub), w);
            write_inputs(w, seed, Scale::new(true), &paths).unwrap();
            (
                std::fs::read(&paths.graph).unwrap(),
                std::fs::read(&paths.deltas).unwrap(),
            )
        };
        let (a, b, c) = (read("a", 3), read("b", 3), read("c", 4));
        std::fs::remove_dir_all(&root).unwrap();
        assert!(a == b, "seed 3 twice");
        assert!(a != c, "seed 3 vs seed 4");
    }
}
