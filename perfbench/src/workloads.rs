//! The four named workloads: which graph, which query, which engine mode.
//!
//! Every workload sets only the algorithm fields `preload` and `descent`
//! of [`TetrisConfig`]; every store field comes from
//! `TetrisConfig::default()`, so a change of the default store shows up
//! as a measured change and needs no benchmark edit.

use plan::{zoo, QueryPlan};
use relation::Relation;
use tetris_core::{Descent, TetrisConfig};
use workload::graphs::{self, Graph};

/// A synthetic graph family, generated exactly as the `t2_graphs` sweep
/// generates it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Preferential attachment with 2 endpoints per new vertex.
    Skewed,
    /// Chung–Lu power law, `alpha = 0.8`, `V = E/2`.
    PowerLaw,
    /// Uniform random edges, `V = E/2`.
    Random,
}

impl Family {
    /// The family's short name, as run records spell it.
    pub fn name(self) -> &'static str {
        match self {
            Family::Skewed => "skewed",
            Family::PowerLaw => "power-law",
            Family::Random => "random",
        }
    }

    /// The `t2_graphs` family seed. A run with `--seed n` generates from
    /// `base_seed() ^ n`, so `--seed 0` is the `t2_graphs` instance.
    pub fn base_seed(self) -> u64 {
        match self {
            Family::Skewed => 0xBEEF,
            Family::PowerLaw => 0xF00D,
            Family::Random => 0xC0FFEE,
        }
    }

    /// The graph with exactly `edges` distinct edges, deterministic in
    /// `seed` (the generator seed, already mixed with the base seed).
    pub fn generate(self, edges: usize, seed: u64) -> Graph {
        let vertices = (edges / 2).max(4) as u64;
        match self {
            Family::Skewed => graphs::skewed_graph_with_edges(edges, 2, seed),
            Family::PowerLaw => graphs::power_law_graph(vertices, 0.8, edges, seed),
            Family::Random => graphs::random_graph(vertices, edges, seed),
        }
    }
}

/// A monotone graph query from the plan zoo.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// `E(A,B), E(B,C), E(A,C)`.
    Triangle,
    /// `E(A,B), E(B,C), E(C,D), E(A,D)`.
    FourCycle,
}

impl Query {
    /// The query's short name.
    pub fn name(self) -> &'static str {
        match self {
            Query::Triangle => "triangle",
            Query::FourCycle => "4-cycle",
        }
    }

    /// The zoo plan over the oriented edge relation.
    pub fn plan(self, edges: &Relation) -> QueryPlan<'_> {
        match self {
            Query::Triangle => zoo::triangle(edges),
            Query::FourCycle => zoo::four_cycle(edges),
        }
    }

    /// The independent ground-truth count.
    pub fn truth(self, g: &Graph) -> u64 {
        match self {
            Query::Triangle => g.count_triangles(),
            Query::FourCycle => g.count_four_cycles(),
        }
    }
}

/// One named workload.
#[derive(Debug)]
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// The graph family.
    pub family: Family,
    /// Distinct edges in the generated graph.
    pub edges: usize,
    /// The query run over it.
    pub query: Query,
    /// `Tetris-Preloaded` (true) or `Tetris-Reloaded` (false).
    pub preload: bool,
    /// The descent strategy.
    pub descent: Descent,
}

/// Every workload, in the order the benchmark doc lists them.
pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tri-skewed-300k",
        family: Family::Skewed,
        edges: 300_000,
        query: Query::Triangle,
        preload: true,
        descent: Descent::Incremental,
    },
    Workload {
        name: "cycle4-powerlaw-50k",
        family: Family::PowerLaw,
        edges: 50_000,
        query: Query::FourCycle,
        preload: true,
        descent: Descent::Incremental,
    },
    Workload {
        name: "tri-random-reloaded-10k",
        family: Family::Random,
        edges: 10_000,
        query: Query::Triangle,
        preload: false,
        descent: Descent::Incremental,
    },
    Workload {
        name: "tri-powerlaw-300k-t2",
        family: Family::PowerLaw,
        edges: 300_000,
        query: Query::Triangle,
        preload: true,
        descent: Descent::Parallel { threads: 2 },
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The engine config: the two algorithm fields over the defaults.
    pub fn config(&self) -> TetrisConfig {
        TetrisConfig {
            preload: self.preload,
            descent: self.descent,
            ..TetrisConfig::default()
        }
    }

    /// Descent worker threads (1 for the sequential modes).
    pub fn threads(&self) -> usize {
        match self.descent {
            Descent::Parallel { threads } => threads,
            _ => 1,
        }
    }

    /// Whether the run is sequential, so every counter repeats exactly.
    pub fn sequential(&self) -> bool {
        !matches!(self.descent, Descent::Parallel { .. })
    }

    /// The generator seed for run seed `seed`.
    pub fn generator_seed(&self, seed: u64) -> u64 {
        self.family.base_seed() ^ seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert!(std::ptr::eq(Workload::find(w.name).unwrap(), w));
        }
        assert!(Workload::find("nope").is_none());
    }

    #[test]
    fn seed_zero_is_the_t2_graphs_instance() {
        let w = Workload::find("tri-skewed-300k").unwrap();
        assert_eq!(w.generator_seed(0), 0xBEEF);
        assert_ne!(w.generator_seed(1), w.generator_seed(2));
    }

    #[test]
    fn config_sets_only_the_algorithm_fields() {
        for w in &WORKLOADS {
            let c = w.config();
            let reset = TetrisConfig {
                preload: false,
                descent: Descent::Incremental,
                ..c
            };
            assert_eq!(reset, TetrisConfig::default(), "{}", w.name);
        }
    }
}
