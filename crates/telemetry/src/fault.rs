//! Deterministic fault injection for chaos tests.
//!
//! Production code marks interesting failure sites with
//! [`fault_point!`](crate::fault_point):
//!
//! ```ignore
//! if let Err(msg) = geotorch_telemetry::fault_point!("serve.batcher.forward") {
//!     return Err(ServeError::Internal(msg));
//! }
//! ```
//!
//! With no plan installed (the production default) a fault point is a
//! single relaxed atomic load — no lock, no allocation, no clock read —
//! so the sites can stay in release builds permanently. A test installs
//! a [`FaultPlan`] describing *which* points fail, *when* (always, on
//! the n-th hit, or with a seeded pseudo-random probability), and *how*
//! ([`FaultAction`]: panic, injected error, or delay). Probability
//! triggers are a pure function of `(seed, point, hit index)`, so the
//! same seed reproduces the same injected failure sequence run after
//! run; the sequence actually injected is recorded and returned by
//! [`injection_log`]/[`clear`] so tests can assert that determinism.
//!
//! The registry is process-global (like the rest of this crate); tests
//! that install plans must serialise themselves around
//! [`install`]/[`clear`] pairs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

static ARMED: AtomicBool = AtomicBool::new(false);

/// Whether any fault plan is installed. A relaxed load — this is the
/// entire cost of a fault point in production.
#[inline(always)]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// What an armed fault point does when its trigger fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with this message (simulates a crash at the site).
    Panic(String),
    /// Make the fault point return `Err` with this message.
    Error(String),
    /// Sleep this many milliseconds, then continue normally (simulates
    /// a stall: slow disk, GC pause, cold cache).
    DelayMs(u64),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    Always,
    /// Fire on exactly the n-th hit of the point (1-based).
    Nth(u64),
    /// Fire with this probability, derived deterministically from the
    /// plan seed, the point name, and the hit index.
    Probability(f64),
}

#[derive(Debug, Clone)]
struct Rule {
    point: String,
    trigger: Trigger,
    action: FaultAction,
}

/// A programmed failure schedule. Build one with the chainable
/// constructors, then [`install`] it.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
}

impl FaultPlan {
    /// An empty plan. The seed only matters for
    /// [`with_probability`](FaultPlan::with_probability) rules.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Fire `action` on every hit of `point`.
    pub fn always(mut self, point: &str, action: FaultAction) -> FaultPlan {
        self.rules.push(Rule {
            point: point.to_string(),
            trigger: Trigger::Always,
            action,
        });
        self
    }

    /// Fire `action` on exactly the `nth` hit of `point` (1-based).
    pub fn on_nth(mut self, point: &str, nth: u64, action: FaultAction) -> FaultPlan {
        self.rules.push(Rule {
            point: point.to_string(),
            trigger: Trigger::Nth(nth),
            action,
        });
        self
    }

    /// Fire `action` on each hit of `point` with probability
    /// `probability` (clamped to `[0, 1]`), decided by a pure function
    /// of the plan seed, the point name, and the hit index — the same
    /// seed always injects the same sequence.
    pub fn with_probability(
        mut self,
        point: &str,
        probability: f64,
        action: FaultAction,
    ) -> FaultPlan {
        self.rules.push(Rule {
            point: point.to_string(),
            trigger: Trigger::Probability(probability.clamp(0.0, 1.0)),
            action,
        });
        self
    }
}

/// One injected fault, as recorded in the injection log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// The fault point that fired.
    pub point: String,
    /// Which hit of the point fired (1-based).
    pub hit: u64,
    /// The action that was applied.
    pub action: FaultAction,
}

struct State {
    plan: FaultPlan,
    counts: BTreeMap<String, u64>,
    log: Vec<FaultRecord>,
}

fn state() -> &'static Mutex<Option<State>> {
    static STATE: OnceLock<Mutex<Option<State>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(None))
}

/// Install `plan`, arming every fault point in the process. Replaces any
/// previously installed plan (and discards its log and hit counts).
pub fn install(plan: FaultPlan) {
    let mut guard = state().lock().unwrap_or_else(|e| e.into_inner());
    *guard = Some(State {
        plan,
        counts: BTreeMap::new(),
        log: Vec::new(),
    });
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarm every fault point and return the log of faults the removed
/// plan injected (empty if no plan was installed).
pub fn clear() -> Vec<FaultRecord> {
    let mut guard = state().lock().unwrap_or_else(|e| e.into_inner());
    ARMED.store(false, Ordering::Relaxed);
    guard.take().map(|s| s.log).unwrap_or_default()
}

/// The faults injected so far by the currently installed plan.
pub fn injection_log() -> Vec<FaultRecord> {
    let guard = state().lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().map(|s| s.log.clone()).unwrap_or_default()
}

/// How many times `point` has been hit under the current plan.
pub fn hits(point: &str) -> u64 {
    let guard = state().lock().unwrap_or_else(|e| e.into_inner());
    guard
        .as_ref()
        .and_then(|s| s.counts.get(point).copied())
        .unwrap_or(0)
}

/// Evaluate an armed fault point. Called by [`crate::fault_point!`]
/// only when [`armed`] is true; panics or sleeps according to the
/// matched rule, and returns `Err` for [`FaultAction::Error`] rules.
///
/// # Panics
/// When the matched rule is [`FaultAction::Panic`] — that is the point.
pub fn hit(point: &str) -> Result<(), String> {
    let action = {
        let mut guard = state().lock().unwrap_or_else(|e| e.into_inner());
        let Some(st) = guard.as_mut() else {
            return Ok(());
        };
        let count = st.counts.entry(point.to_string()).or_insert(0);
        *count += 1;
        let count = *count;
        let seed = st.plan.seed;
        let matched = st.plan.rules.iter().find(|r| {
            r.point == point
                && match r.trigger {
                    Trigger::Always => true,
                    Trigger::Nth(n) => n == count,
                    Trigger::Probability(p) => unit_interval(seed, point, count) < p,
                }
        });
        match matched {
            None => None,
            Some(rule) => {
                let action = rule.action.clone();
                st.log.push(FaultRecord {
                    point: point.to_string(),
                    hit: count,
                    action: action.clone(),
                });
                Some(action)
            }
        }
    };
    // The lock is released before the action runs: a delay must not
    // serialise unrelated fault points, and a panic must not poison the
    // registry for the rest of the test.
    match action {
        None => Ok(()),
        Some(FaultAction::DelayMs(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        Some(FaultAction::Error(msg)) => Err(msg),
        Some(FaultAction::Panic(msg)) => panic!("injected fault at `{point}`: {msg}"),
    }
}

/// Deterministic value in `[0, 1)` from `(seed, point, hit index)` —
/// FNV-1a over the point name mixed through a splitmix64 finaliser.
fn unit_interval(seed: u64, point: &str, count: u64) -> f64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in point.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    let mut z = seed
        .wrapping_add(h)
        .wrapping_add(count.wrapping_mul(0x9e3779b97f4a7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A named failure site. Expands to a `Result<(), String>`: `Ok(())` on
/// the (default, disarmed) fast path, or whatever the installed
/// [`FaultPlan`] dictates — `Err` for injected errors, a panic or an
/// inline sleep for the other actions.
#[macro_export]
macro_rules! fault_point {
    ($name:literal) => {
        if $crate::fault::armed() {
            $crate::fault::hit($name)
        } else {
            ::core::result::Result::<(), ::std::string::String>::Ok(())
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fault registry is process-global; serialise the tests that
    /// install plans.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_points_are_ok_and_unlogged() {
        let _g = serial();
        clear();
        assert!(!armed());
        for _ in 0..1000 {
            assert_eq!(crate::fault_point!("test.fault.noop"), Ok(()));
        }
        assert!(injection_log().is_empty());
        assert_eq!(hits("test.fault.noop"), 0, "disarmed hits are not counted");
    }

    #[test]
    fn nth_rule_fires_exactly_once() {
        let _g = serial();
        install(FaultPlan::new(0).on_nth("test.fault.nth", 3, FaultAction::Error("boom".into())));
        let results: Vec<_> = (0..5).map(|_| crate::fault_point!("test.fault.nth")).collect();
        assert_eq!(results[0], Ok(()));
        assert_eq!(results[1], Ok(()));
        assert_eq!(results[2], Err("boom".to_string()));
        assert_eq!(results[3], Ok(()));
        assert_eq!(hits("test.fault.nth"), 5);
        let log = clear();
        assert_eq!(
            log,
            vec![FaultRecord {
                point: "test.fault.nth".into(),
                hit: 3,
                action: FaultAction::Error("boom".into()),
            }]
        );
    }

    #[test]
    fn always_rule_targets_only_its_point() {
        let _g = serial();
        install(FaultPlan::new(0).always("test.fault.here", FaultAction::Error("x".into())));
        assert!(crate::fault_point!("test.fault.here").is_err());
        assert!(crate::fault_point!("test.fault.elsewhere").is_ok());
        clear();
    }

    #[test]
    fn panic_action_panics_with_point_name() {
        let _g = serial();
        install(FaultPlan::new(0).always("test.fault.panic", FaultAction::Panic("kaboom".into())));
        let caught = std::panic::catch_unwind(|| {
            let _ = crate::fault_point!("test.fault.panic");
        });
        let msg = *caught
            .expect_err("panic action must panic")
            .downcast::<String>()
            .expect("panic payload is a formatted string");
        assert!(msg.contains("test.fault.panic") && msg.contains("kaboom"), "{msg}");
        clear();
    }

    #[test]
    fn delay_action_sleeps() {
        let _g = serial();
        install(FaultPlan::new(0).always("test.fault.delay", FaultAction::DelayMs(30)));
        let start = std::time::Instant::now();
        assert!(crate::fault_point!("test.fault.delay").is_ok());
        assert!(start.elapsed() >= Duration::from_millis(25));
        clear();
    }

    #[test]
    fn probability_rules_are_deterministic_per_seed() {
        let _g = serial();
        let run = |seed: u64| -> Vec<FaultRecord> {
            install(FaultPlan::new(seed).with_probability(
                "test.fault.prob",
                0.3,
                FaultAction::Error("p".into()),
            ));
            for _ in 0..200 {
                let _ = crate::fault_point!("test.fault.prob");
            }
            clear()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must inject the same sequence");
        assert!(
            !a.is_empty() && a.len() < 200,
            "p=0.3 over 200 hits should fire sometimes, not always: fired {}",
            a.len()
        );
        let c = run(8);
        assert_ne!(a, c, "a different seed should produce a different sequence");
    }

    #[test]
    fn disarmed_points_are_fast() {
        let _g = serial();
        clear();
        let start = std::time::Instant::now();
        for _ in 0..1_000_000 {
            let _ = crate::fault_point!("test.fault.speed");
        }
        let elapsed = start.elapsed();
        // One relaxed load per hit: even a slow CI box does 1M in well
        // under this bound; a registry lookup or allocation would not.
        assert!(
            elapsed < Duration::from_millis(500),
            "1M disarmed fault points took {elapsed:?}"
        );
    }
}
