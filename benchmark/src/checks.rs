//! Output checks, counted: every check a workload makes is one attempt, every
//! miss is a failure printed by name, and a run with any failure exits
//! non-zero. `failed / attempted` is the benchmark's failed share.

#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: Vec<String>,
}

impl Checks {
    /// Records one check. `name` says what must hold, in the workload's
    /// words, and is what a failure prints.
    pub fn check(&mut self, name: &str, holds: bool) {
        self.attempted += 1;
        if !holds {
            self.failed.push(name.to_string());
        }
    }

    /// Records a check that two values agree, printing both on a miss.
    pub fn check_eq<T: PartialEq + std::fmt::Debug>(&mut self, name: &str, got: T, want: T) {
        self.attempted += 1;
        if got != want {
            self.failed
                .push(format!("{name}: got {got:?}, want {want:?}"));
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> &[String] {
        &self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misses_are_counted_and_named() {
        let mut checks = Checks::default();
        checks.check("models satisfy the formula", true);
        checks.check("run ends complete", false);
        checks.check_eq("sat count", 3, 3);
        checks.check_eq("unsat count", 4, 5);
        assert_eq!(checks.attempted(), 4);
        assert_eq!(
            checks.failed(),
            ["run ends complete", "unsat count: got 4, want 5"]
        );
    }
}
