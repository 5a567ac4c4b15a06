//! Host-speed normalization.
//!
//! The benchmark runs on shared virtual machines whose effective CPU speed
//! drifts by up to 1.5x over tens of seconds as other guests load the
//! same cores; CPU time does not hide that, because a slowed core still
//! charges the time to the thread. So every timed phase also times a
//! fixed reference kernel on the same thread, and costs are reported
//! scaled by `NOMINAL_MS / kernel time`: milliseconds on a host where the
//! kernel takes `NOMINAL_MS`. The kernel lives here, outside the program
//! under test, so no change to Lagoon moves it.

use std::hint::black_box;

use crate::host::thread_cpu_s;
use crate::stats::median;

/// The scale: costs read as milliseconds on a host where one kernel pass
/// takes this long (the 2-vCPU reference host measures 1.0 to 1.2 ms).
pub const NOMINAL_MS: f64 = 1.0;

#[derive(Clone, Copy)]
enum Op {
    Push(i64),
    Add,
    Mul,
    Xor,
    Dup,
    Swap,
    JumpIfPositive(usize),
    Dec,
}

/// A stack-machine program: a counted loop of mixed arithmetic, so the
/// kernel stresses dispatch, branches and a small working set the way a
/// bytecode interpreter does.
const PROGRAM: [Op; 12] = [
    Op::Push(0),
    Op::Push(4000),
    // loop: [acc, n]
    Op::Swap,
    Op::Push(31),
    Op::Mul,
    Op::Push(7),
    Op::Xor,
    Op::Swap,
    Op::Dec,
    Op::Dup,
    Op::JumpIfPositive(2),
    Op::Add,
];

fn interpret(program: &[Op]) -> i64 {
    let mut stack: Vec<i64> = Vec::with_capacity(16);
    let mut pc = 0;
    while let Some(op) = program.get(pc).copied() {
        pc += 1;
        match op {
            Op::Push(v) => stack.push(v),
            Op::Add | Op::Mul | Op::Xor => {
                let (b, a) = (stack.pop().unwrap_or(0), stack.pop().unwrap_or(0));
                stack.push(match op {
                    Op::Add => a.wrapping_add(b),
                    Op::Mul => a.wrapping_mul(b),
                    _ => a ^ b,
                });
            }
            Op::Dup => stack.push(stack.last().copied().unwrap_or(0)),
            Op::Swap => {
                let n = stack.len();
                if n >= 2 {
                    stack.swap(n - 1, n - 2);
                }
            }
            Op::Dec => {
                if let Some(top) = stack.last_mut() {
                    *top -= 1;
                }
            }
            Op::JumpIfPositive(target) => {
                if stack.pop().unwrap_or(0) > 0 {
                    pc = target;
                }
            }
        }
    }
    stack.pop().unwrap_or(0)
}

/// Thread CPU ms of one kernel pass.
pub fn sample_ms() -> f64 {
    let start = thread_cpu_s();
    for _ in 0..black_box(8) {
        black_box(interpret(black_box(&PROGRAM)));
    }
    (thread_cpu_s() - start) * 1e3
}

/// Collects kernel samples taken alongside the measured work.
#[derive(Default)]
pub struct Calibration {
    samples: Vec<f64>,
}

impl Calibration {
    pub fn sample(&mut self, passes: usize) {
        for _ in 0..passes {
            self.samples.push(sample_ms());
        }
    }

    /// `NOMINAL_MS / median kernel time`: multiply a cost by this to
    /// express it at nominal host speed. Clears the samples.
    pub fn take_scale(&mut self) -> f64 {
        let m = median(&self.samples).unwrap_or(NOMINAL_MS);
        self.samples.clear();
        NOMINAL_MS / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_costs_time() {
        assert_eq!(interpret(&PROGRAM), interpret(&PROGRAM));
        assert!(sample_ms() > 0.0);
        let mut c = Calibration::default();
        c.sample(3);
        let scale = c.take_scale();
        assert!(scale.is_finite() && scale > 0.0);
    }
}
