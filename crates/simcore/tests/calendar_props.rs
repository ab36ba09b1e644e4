//! Property tests: the timer-wheel `Calendar` against a naive reference
//! model (a sorted list popped from the front).
//!
//! Whatever interleaving of schedule / cancel / pop runs, the wheel must
//! produce exactly the model's pop order — including same-instant FIFO
//! tie-breaking and cancel semantics — and agree on `len` and `peek_time`.
//! `pop_until` pops exactly when the model's next event is due by then.

use proptest::prelude::*;
use proptest::strategy::Just;
use simcore::{Calendar, EventToken, SimTime};

/// Reference model: (at, seq, payload) triples, popped in (at, seq) order.
#[derive(Default)]
struct Model {
    pending: Vec<(u64, u64, u32)>,
    next_seq: u64,
    now: u64,
}

impl Model {
    fn schedule(&mut self, at: u64, payload: u32) -> u64 {
        assert!(at >= self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((at, seq, payload));
        seq
    }
    fn cancel(&mut self, seq: u64) -> bool {
        match self.pending.iter().position(|&(_, s, _)| s == seq) {
            Some(i) => {
                self.pending.remove(i);
                true
            }
            None => false,
        }
    }
    fn pop(&mut self) -> Option<(u64, u32)> {
        let i = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(at, seq, _))| (at, seq))
            .map(|(i, _)| i)?;
        let (at, _, payload) = self.pending.remove(i);
        self.now = at;
        Some((at, payload))
    }
    fn peek(&self) -> Option<u64> {
        self.pending.iter().map(|&(at, ..)| at).min()
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Schedule `delta` ns after the current clock (spans all wheel levels
    /// and the overflow heap).
    Schedule { delta: u64 },
    /// Cancel the `nth` still-remembered token (may already have fired).
    Cancel { nth: usize },
    Pop,
    Peek,
    /// Pop the next event only if it is due within `delta` ns of now.
    PopUntil(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Long deltas span all wheel levels and the overflow heap.
        (0u64..=1 << 44).prop_map(|delta| Op::Schedule { delta }),
        // Near-future deltas (repeated to bias the mix) make FIFO ties and
        // slot collisions actually happen.
        (0u64..=1 << 14).prop_map(|delta| Op::Schedule { delta }),
        (0u64..=1 << 14).prop_map(|delta| Op::Schedule { delta }),
        any::<usize>().prop_map(|nth| Op::Cancel { nth }),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Peek),
        (0u64..=1 << 16).prop_map(Op::PopUntil),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wheel_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut cal: Calendar<u32> = Calendar::new();
        let mut model = Model::default();
        let mut tokens: Vec<(EventToken, u64)> = Vec::new();
        let mut payload = 0u32;

        for op in ops {
            match op {
                Op::Schedule { delta } => {
                    let at = model.now.saturating_add(delta);
                    payload += 1;
                    let tok = cal.schedule(SimTime::from_nanos(at), payload);
                    let seq = model.schedule(at, payload);
                    tokens.push((tok, seq));
                }
                Op::Cancel { nth } => {
                    if !tokens.is_empty() {
                        let (tok, seq) = tokens[nth % tokens.len()];
                        prop_assert_eq!(cal.cancel(tok), model.cancel(seq));
                    }
                }
                Op::Pop => {
                    let got = cal.pop().map(|(t, p)| (t.as_nanos(), p));
                    prop_assert_eq!(got, model.pop());
                }
                Op::Peek => {
                    prop_assert_eq!(cal.peek_time().map(SimTime::as_nanos), model.peek());
                }
                Op::PopUntil(delta) => {
                    let until = model.now.saturating_add(delta);
                    let got = cal
                        .pop_until(SimTime::from_nanos(until))
                        .map(|(t, p)| (t.as_nanos(), p));
                    let want = match model.peek() {
                        Some(at) if at <= until => model.pop(),
                        _ => None,
                    };
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(cal.len(), model.pending.len());
        }

        // Drain: the full remaining order must match.
        loop {
            let got = cal.pop().map(|(t, p)| (t.as_nanos(), p));
            let want = model.pop();
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
    }

    #[test]
    fn same_instant_bursts_pop_fifo(
        bursts in proptest::collection::vec((0u64..1 << 20, 1usize..20), 1..30)
    ) {
        // Many events at each of a handful of instants: pops must come back
        // grouped by time, FIFO within each group.
        let mut cal: Calendar<u32> = Calendar::new();
        let mut expected: Vec<(u64, u32)> = Vec::new();
        let mut payload = 0u32;
        for (at, count) in bursts {
            for _ in 0..count {
                payload += 1;
                cal.schedule(SimTime::from_nanos(at), payload);
                expected.push((at, payload));
            }
        }
        expected.sort_by_key(|&(at, p)| (at, p)); // payload order == insertion order
        let drained: Vec<(u64, u32)> =
            std::iter::from_fn(|| cal.pop().map(|(t, p)| (t.as_nanos(), p))).collect();
        prop_assert_eq!(drained, expected);
    }
}
