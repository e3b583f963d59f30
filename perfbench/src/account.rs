//! Failure accounting for query executions and the arithmetic of the
//! derived metrics.

use std::fmt;

/// Why one query execution failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The listing differs from leapfrog's listing of the same plan.
    Listing {
        /// Tuples Tetris listed.
        got: usize,
        /// Tuples leapfrog listed.
        want: usize,
        /// First differing position (`None`: lengths differ only).
        first_diff: Option<usize>,
    },
    /// The output count differs from the independent ground truth.
    Count {
        /// `TetrisStats::outputs`.
        got: u64,
        /// The ground-truth count.
        want: u64,
    },
    /// A sequential run's resolution count differs from the first
    /// execution's.
    Resolutions {
        /// This execution's count.
        got: u64,
        /// The first execution's count.
        want: u64,
    },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Listing {
                got,
                want,
                first_diff,
            } => write!(
                f,
                "listing differs from leapfrog: {got} vs {want} tuples, first difference at {first_diff:?}"
            ),
            Failure::Count { got, want } => {
                write!(f, "output count {got} differs from ground truth {want}")
            }
            Failure::Resolutions { got, want } => write!(
                f,
                "sequential resolutions {got} differ from the first execution's {want}"
            ),
        }
    }
}

/// The reference an execution is checked against.
pub struct Reference {
    /// Leapfrog's listing, lex-sorted, flattened row-major.
    pub listing: Vec<u64>,
    /// Tuple arity.
    pub arity: usize,
    /// The independent ground-truth count.
    pub truth: u64,
}

impl Reference {
    /// Build from leapfrog's tuples (sorted here, whatever order they
    /// arrive in).
    pub fn new(mut tuples: Vec<Vec<u64>>, arity: usize, truth: u64) -> Self {
        tuples.sort_unstable();
        assert!(tuples.iter().all(|t| t.len() == arity), "ragged listing");
        Reference {
            listing: tuples.concat(),
            arity,
            truth,
        }
    }

    /// Tuples in the reference listing.
    pub fn len(&self) -> usize {
        self.listing.len() / self.arity.max(1)
    }
}

/// Attempted and failed query executions, plus the checks that span
/// executions.
pub struct Accounting {
    /// Executions attempted.
    pub attempted: u64,
    /// Executions that failed at least one check.
    pub failed: u64,
    /// The first few failure messages, for the run record.
    pub messages: Vec<String>,
    sequential: bool,
    first_resolutions: Option<u64>,
}

/// Failure messages kept in a run record.
const MAX_MESSAGES: usize = 8;

impl Accounting {
    /// Start counting; `sequential` turns on the resolution-repeat check.
    pub fn new(sequential: bool) -> Self {
        Accounting {
            attempted: 0,
            failed: 0,
            messages: Vec::new(),
            sequential,
            first_resolutions: None,
        }
    }

    /// Check one execution: its listing (any order), its output counter,
    /// and its resolution count. Returns this execution's failures.
    pub fn record(
        &mut self,
        reference: &Reference,
        tuples: &[Vec<u64>],
        outputs: u64,
        resolutions: u64,
    ) -> Vec<Failure> {
        let mut failures = Vec::new();
        if let Some(f) = compare_listing(reference, tuples) {
            failures.push(f);
        }
        if outputs != reference.truth {
            failures.push(Failure::Count {
                got: outputs,
                want: reference.truth,
            });
        }
        let want = *self.first_resolutions.get_or_insert(resolutions);
        if self.sequential && resolutions != want {
            failures.push(Failure::Resolutions {
                got: resolutions,
                want,
            });
        }
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in &failures {
                if self.messages.len() < MAX_MESSAGES {
                    self.messages
                        .push(format!("execution {}: {f}", self.attempted - 1));
                }
            }
        }
        failures
    }

    /// The first execution's resolution count.
    pub fn first_resolutions(&self) -> Option<u64> {
        self.first_resolutions
    }
}

/// Compare a listing, in any order, with the sorted reference.
fn compare_listing(reference: &Reference, tuples: &[Vec<u64>]) -> Option<Failure> {
    let sorted_copy;
    let tuples = if tuples.windows(2).all(|w| w[0] <= w[1]) {
        tuples
    } else {
        let mut c = tuples.to_vec();
        c.sort_unstable();
        sorted_copy = c;
        &sorted_copy
    };
    let want = reference.len();
    let first_diff = tuples
        .iter()
        .zip(reference.listing.chunks_exact(reference.arity.max(1)))
        .position(|(t, r)| t.as_slice() != r);
    if first_diff.is_none() && tuples.len() == want {
        return None;
    }
    Some(Failure::Listing {
        got: tuples.len(),
        want,
        first_diff,
    })
}

/// The median (mean of the middle two for an even count); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// `num / den`, or `None` when the denominator is not positive.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Nanoseconds of solve per resolution.
pub fn ns_per_resolution(solve_s: f64, resolutions: f64) -> Option<f64> {
    ratio(solve_s * 1e9, resolutions)
}

/// Tracing overhead: traced over untraced query time, minus 1.
pub fn overhead(traced_s: f64, untraced_s: f64) -> Option<f64> {
    ratio(traced_s, untraced_s).map(|r| r - 1.0)
}

/// Store-insert time of a preload: the preload's wall minus the time the
/// relation layer takes to stream the same gap boxes. A run without a
/// preload inserts nothing before the solve, so its preload insert time
/// is exactly 0.
pub fn insert_s(preload: bool, preload_s: f64, gap_stream_s: f64) -> f64 {
    if preload {
        preload_s - gap_stream_s
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Reference {
        // Arrives unsorted; truth agrees with the listing.
        Reference::new(vec![vec![1, 2, 3], vec![0, 1, 2]], 3, 2)
    }

    #[test]
    fn a_correct_execution_passes_in_any_order() {
        let r = reference();
        let mut a = Accounting::new(true);
        assert!(a
            .record(&r, &[vec![0, 1, 2], vec![1, 2, 3]], 2, 10)
            .is_empty());
        assert!(a
            .record(&r, &[vec![1, 2, 3], vec![0, 1, 2]], 2, 10)
            .is_empty());
        assert_eq!((a.attempted, a.failed), (2, 0));
        assert!(a.messages.is_empty());
    }

    #[test]
    fn each_check_fails_its_execution_and_counting_continues() {
        let r = reference();
        let mut a = Accounting::new(true);
        assert!(a
            .record(&r, &[vec![0, 1, 2], vec![1, 2, 3]], 2, 10)
            .is_empty());
        // A wrong tuple: listing fails, count still right.
        let f = a.record(&r, &[vec![0, 1, 2], vec![1, 2, 4]], 2, 10);
        assert_eq!(
            f,
            vec![Failure::Listing {
                got: 2,
                want: 2,
                first_diff: Some(1)
            }]
        );
        // A missing tuple and a wrong counter.
        let f = a.record(&r, &[vec![0, 1, 2]], 1, 10);
        assert_eq!(f.len(), 2);
        assert!(matches!(
            f[0],
            Failure::Listing {
                got: 1,
                want: 2,
                first_diff: None
            }
        ));
        assert_eq!(f[1], Failure::Count { got: 1, want: 2 });
        // Resolution drift on a sequential run.
        let f = a.record(&r, &[vec![0, 1, 2], vec![1, 2, 3]], 2, 11);
        assert_eq!(f, vec![Failure::Resolutions { got: 11, want: 10 }]);
        // A later good execution still counts as attempted, not failed.
        assert!(a
            .record(&r, &[vec![0, 1, 2], vec![1, 2, 3]], 2, 10)
            .is_empty());
        assert_eq!((a.attempted, a.failed), (5, 3));
        assert_eq!(a.messages.len(), 4);
        assert!(a.messages[0].starts_with("execution 1: listing differs"));
    }

    #[test]
    fn parallel_runs_may_vary_resolutions() {
        let r = reference();
        let mut a = Accounting::new(false);
        a.record(&r, &[vec![0, 1, 2], vec![1, 2, 3]], 2, 10);
        assert!(a
            .record(&r, &[vec![0, 1, 2], vec![1, 2, 3]], 2, 12)
            .is_empty());
        assert_eq!(a.failed, 0);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn derived_metric_arithmetic() {
        assert_eq!(ns_per_resolution(2.0, 4e9), Some(0.5));
        assert_eq!(ns_per_resolution(2.0, 0.0), None);
        assert_eq!(ratio(3.0, 1.5), Some(2.0));
        let o = overhead(1.02, 1.0).unwrap();
        assert!((o - 0.02).abs() < 1e-12);
        assert!(overhead(0.98, 1.0).unwrap() < 0.0);
        assert_eq!(insert_s(true, 1.05, 0.15), 1.05 - 0.15);
        assert_eq!(insert_s(false, 0.001, 0.15), 0.0);
    }
}
