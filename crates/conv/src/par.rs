//! Host-side parallel map over independent jobs: the one worker pool
//! behind every sweep experiment and every [`crate::ModelRunner`] plan.
//!
//! Replaces the rayon dependency (unavailable offline) with a scoped
//! worker pool: jobs are claimed by atomic index so an expensive layer
//! doesn't serialize behind a cheap one, and results keep input order.
//! The calling thread is one of the workers, so a one-thread host spawns
//! no thread at all.
//!
//! A job that panics does not poison the pool: the panic payload is caught
//! in the worker, the surviving workers finish their claimed jobs, and the
//! first failure is re-raised on the caller's thread annotated with the
//! failing job index — so a sweep that dies points at *which* layer/config
//! killed it instead of an opaque "poisoned lock".

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Lock a mutex, ignoring poison: every slot value is only ever taken or
/// stored whole, so a panic between operations cannot leave it half-updated.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Re-raise a caught job panic on the calling thread, prefixing the payload
/// (when it is a string) with the failing job index.
fn repanic(index: usize, payload: Box<dyn std::any::Any + Send>) -> ! {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        Some((*s).to_string())
    } else {
        payload.downcast_ref::<String>().cloned()
    };
    match msg {
        Some(m) => panic!("par_map: job {index} panicked: {m}"),
        None => resume_unwind(payload),
    }
}

/// Apply `f` to every item, using up to `available_parallelism` worker
/// threads (the caller plus `threads - 1` spawned ones), and return the
/// results in input order.
///
/// # Panics
/// If any job panics, panics with `par_map: job {i} panicked: ...` for the
/// lowest-indexed failing job (after letting in-flight jobs finish).
pub fn par_map<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = items.len();
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1)
        .min(n.max(1));
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    type Failure = Box<dyn std::any::Any + Send>;
    let failures: Mutex<Vec<(usize, Failure)>> = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let item = lock_unpoisoned(&slots[i])
            .take()
            .expect("par_map: job claimed twice");
        match catch_unwind(AssertUnwindSafe(|| f(item))) {
            Ok(out) => *lock_unpoisoned(&results[i]) = Some(out),
            Err(payload) => lock_unpoisoned(&failures).push((i, payload)),
        }
    };
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(work);
        }
        work();
    });
    let mut failed = failures.into_inner().unwrap_or_else(|e| e.into_inner());
    if !failed.is_empty() {
        failed.sort_by_key(|&(i, _)| i);
        let (i, payload) = failed.remove(0);
        repanic(i, payload);
    }
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("par_map: worker exited without storing a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::par_map;

    #[test]
    fn preserves_order_and_values() {
        let xs: Vec<usize> = (0..100).collect();
        let ys = par_map(xs, |x| x * 3);
        assert_eq!(ys, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let ys: Vec<u32> = par_map(Vec::<u32>::new(), |x| x);
        assert!(ys.is_empty());
    }

    #[test]
    fn panicking_job_reports_its_index() {
        let caught = std::panic::catch_unwind(|| {
            par_map((0..16).collect::<Vec<u32>>(), |x| {
                if x == 11 {
                    panic!("layer exploded");
                }
                x
            })
        })
        .expect_err("a panicking job must fail the map");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .expect("annotated panic carries a String payload");
        assert!(msg.contains("job 11"), "panic names the job index: {msg}");
        assert!(
            msg.contains("layer exploded"),
            "original message kept: {msg}"
        );
    }

    #[test]
    fn lowest_failing_index_wins_and_survivors_complete() {
        // Two failing jobs: the report must name the lowest index regardless
        // of completion order.
        let caught = std::panic::catch_unwind(|| {
            par_map((0..32).collect::<Vec<u32>>(), |x| {
                if x == 7 || x == 23 {
                    panic!("boom {x}");
                }
                x
            })
        })
        .expect_err("failing jobs must fail the map");
        let msg = caught.downcast_ref::<String>().cloned().unwrap();
        assert!(msg.contains("job 7"), "lowest failing job reported: {msg}");
    }

    #[test]
    fn non_string_panic_payloads_propagate() {
        let caught = std::panic::catch_unwind(|| {
            par_map(vec![0u32], |_| -> u32 { std::panic::panic_any(42i32) })
        })
        .expect_err("panic must propagate");
        assert_eq!(caught.downcast_ref::<i32>(), Some(&42));
    }
}
