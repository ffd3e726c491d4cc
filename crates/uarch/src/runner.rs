//! A minimal work-queue thread pool for simulation work.
//!
//! Jobs are independent closures producing results; the pool preserves
//! input order in the output. Progress is reported to stderr since sweeps
//! can take minutes. Lives in `btbx-uarch` (rather than the experiment
//! harness) so [`crate::batch::BatchSession`] can run its lanes on it;
//! `btbx-bench` uses it for sweeps and the service.
//!
//! # Failures
//!
//! [`try_run_named_jobs`] runs fallible jobs: the first job to return
//! `Err` cancels every queued job, every in-flight job finishes, and the
//! error becomes the run's. A panicking job is a bug, not a failure: it
//! does not poison or hang the pool either (the panic is caught on the
//! worker and the queue cancelled the same way), but the pool then
//! resumes the panic with the offending job's label attached.

// The pool boundary is the one place a panic is caught: a panicking job
// is a bug, and the pool turns it into a labelled panic of the run.
#![allow(clippy::disallowed_methods)]

use std::convert::Infallible;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `jobs` on up to `threads` workers, preserving order; `label` is
/// used for progress reporting. Jobs are labelled by queue index.
pub fn run_jobs<T, F>(label: &str, threads: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let named = jobs
        .into_iter()
        .enumerate()
        .map(|(i, job)| (format!("#{i}"), move || Ok::<T, Infallible>(job())))
        .collect();
    match try_run_named_jobs(label, threads, named) {
        Ok(results) => results,
        Err(never) => match never {},
    }
}

/// Run fallible labelled jobs on up to `threads` workers, preserving
/// order. The first `Err` cancels the queue and is returned once the
/// in-flight jobs finish; a panicking job fails the run with its label
/// in the panic message.
///
/// # Errors
///
/// The error of the first job that failed.
pub fn try_run_named_jobs<T, E, F>(
    pool_label: &str,
    threads: usize,
    jobs: Vec<(String, F)>,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: FnOnce() -> Result<T, E> + Send,
{
    let total = jobs.len();
    if total == 0 {
        return Ok(Vec::new());
    }
    let threads = threads.clamp(1, total);
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    // Jobs are FnOnce; store them as Options so workers can take them.
    let slots: Vec<(String, Mutex<Option<F>>)> = jobs
        .into_iter()
        .map(|(name, j)| (name, Mutex::new(Some(j))))
        .collect();
    let results: Vec<Mutex<Option<T>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let error: Mutex<Option<E>> = Mutex::new(None);
    let panicked: Mutex<Option<(String, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if cancelled.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let (name, slot) = &slots[i];
                let job = slot.lock().unwrap().take().expect("job taken twice");
                match catch_unwind(AssertUnwindSafe(job)) {
                    Ok(Ok(result)) => *results[i].lock().unwrap() = Some(result),
                    Ok(Err(e)) => {
                        cancelled.store(true, Ordering::Relaxed);
                        error.lock().unwrap().get_or_insert(e);
                        break;
                    }
                    Err(payload) => {
                        cancelled.store(true, Ordering::Relaxed);
                        panicked
                            .lock()
                            .unwrap()
                            .get_or_insert((name.clone(), payload));
                        break;
                    }
                }
                let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                if d.is_multiple_of(10) || d == total {
                    eprintln!("[{pool_label}] {d}/{total}");
                }
            });
        }
    });

    if let Some((name, payload)) = panicked.into_inner().unwrap() {
        eprintln!("[{pool_label}] job `{name}` panicked; failing the run");
        resume_unwind(Box::new(format!(
            "[{pool_label}] job `{name}` panicked: {}",
            panic_message(&*payload)
        )));
    }
    if let Some(e) = error.into_inner().unwrap() {
        return Err(e);
    }
    Ok(results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("missing result"))
        .collect())
}

/// A long-lived worker pool for service-style workloads (e.g. `btbx
/// serve` request handling), complementing the batch-oriented
/// [`try_run_named_jobs`].
///
/// Differences from the batch pool:
///
/// * workers live until [`ServicePool::shutdown`] (or drop) instead of
///   until a job list drains;
/// * a panicking job is logged and *absorbed* — the worker keeps serving.
///   A long-lived service must not let one poisoned request kill the
///   process; per-request failure reporting is the submitter's job.
///
/// Shutdown is graceful: already-submitted jobs finish before the workers
/// exit.
pub struct ServicePool {
    sender: Option<std::sync::mpsc::Sender<ServiceJob>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// A queued service job: display label plus the work itself.
type ServiceJob = (String, Box<dyn FnOnce() + Send>);

impl ServicePool {
    /// Spawn `threads` workers (at least one), labelled for panic logs.
    pub fn new(pool_label: &str, threads: usize) -> Self {
        let (sender, receiver) = std::sync::mpsc::channel::<ServiceJob>();
        let receiver = std::sync::Arc::new(Mutex::new(receiver));
        let workers = (0..threads.max(1))
            .map(|_| {
                let receiver = std::sync::Arc::clone(&receiver);
                let pool_label = pool_label.to_string();
                std::thread::spawn(move || loop {
                    // Hold the lock only while receiving, not while
                    // running the job.
                    let job = receiver.lock().unwrap().recv();
                    match job {
                        Ok((name, job)) => {
                            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                                eprintln!("[{pool_label}] job `{name}` panicked; worker continues");
                            }
                        }
                        Err(_) => break, // all senders dropped: shutdown
                    }
                })
            })
            .collect();
        ServicePool {
            sender: Some(sender),
            workers,
        }
    }

    /// Queue a job; some worker runs it as soon as one is free.
    pub fn submit(&self, name: impl Into<String>, job: impl FnOnce() + Send + 'static) {
        self.sender
            .as_ref()
            .expect("pool is live until shutdown")
            .send((name.into(), Box::new(job)))
            .expect("workers outlive the sender");
    }

    /// Drain queued jobs and join every worker.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServicePool {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let jobs: Vec<_> = (0..50).map(|i| move || i * 2).collect();
        let out = run_jobs("t", 4, jobs);
        assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_is_fine() {
        let out: Vec<i32> = run_jobs("t", 4, Vec::<fn() -> i32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_works() {
        let jobs: Vec<_> = (0..5).map(|i| move || i + 1).collect();
        assert_eq!(run_jobs("t", 1, jobs), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn more_threads_than_jobs() {
        let jobs: Vec<_> = (0..2).map(|i| move || i).collect();
        assert_eq!(run_jobs("t", 16, jobs), vec![0, 1]);
    }

    #[test]
    fn panicking_job_fails_the_run_with_its_label() {
        // Regression test: before the catch_unwind handling, a panicking
        // job blew up its worker and the failure surfaced (if at all) as a
        // generic scope panic with no indication of which job died.
        type Job = Box<dyn FnOnce() -> Result<u32, ()> + Send>;
        let jobs: Vec<(String, Job)> = vec![
            ("fine".to_string(), Box::new(|| Ok(1u32)) as Job),
            (
                "doomed".to_string(),
                Box::new(|| -> Result<u32, ()> { panic!("simulated workload failure") }) as Job,
            ),
            ("also-fine".to_string(), Box::new(|| Ok(3u32)) as Job),
        ];
        let outcome = catch_unwind(AssertUnwindSafe(|| try_run_named_jobs("pool", 2, jobs)));
        let payload = outcome.expect_err("the run must fail");
        let msg = payload
            .downcast_ref::<String>()
            .expect("labelled panic message");
        assert!(msg.contains("doomed"), "label missing: {msg}");
        assert!(msg.contains("simulated workload failure"), "{msg}");
        assert!(msg.contains("pool"), "{msg}");
    }

    #[test]
    fn service_pool_runs_jobs_and_drains_on_shutdown() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let ran = Arc::new(AtomicUsize::new(0));
        let pool = ServicePool::new("svc", 3);
        for _ in 0..40 {
            let ran = Arc::clone(&ran);
            pool.submit("tick", move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 40, "shutdown must drain");
    }

    #[test]
    fn service_pool_survives_panicking_jobs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let ran = Arc::new(AtomicUsize::new(0));
        let pool = ServicePool::new("svc", 1);
        pool.submit("doomed", || panic!("bad request"));
        let after = Arc::clone(&ran);
        pool.submit("fine", move || {
            after.fetch_add(1, Ordering::Relaxed);
        });
        pool.shutdown();
        assert_eq!(
            ran.load(Ordering::Relaxed),
            1,
            "the worker must outlive a panicking job"
        );
    }

    #[test]
    fn panic_cancels_queued_jobs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // One worker: the panicking first job must stop the queue instead
        // of hanging or running the remaining 100 jobs.
        let ran = AtomicUsize::new(0);
        type Job<'a> = Box<dyn FnOnce() -> Result<u32, ()> + Send + 'a>;
        let mut jobs: Vec<(String, Job)> = vec![(
            "boom".to_string(),
            Box::new(|| -> Result<u32, ()> { panic!("die") }) as Job,
        )];
        for i in 0..100 {
            let ran = &ran;
            jobs.push((
                format!("later-{i}"),
                Box::new(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                    Ok(0u32)
                }) as Job,
            ));
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| try_run_named_jobs("pool", 1, jobs)));
        assert!(outcome.is_err());
        assert_eq!(ran.load(Ordering::Relaxed), 0, "queued jobs must not run");
    }

    #[test]
    fn first_error_cancels_queued_jobs_and_fails_the_run() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ran = AtomicUsize::new(0);
        let mut jobs = vec![("bad".to_string(), Err("no trace"))];
        jobs.extend((0..100).map(|i| (format!("later-{i}"), Ok(i))));
        let jobs: Vec<_> = jobs
            .into_iter()
            .map(|(name, outcome)| {
                let ran = &ran;
                (name, move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                    outcome
                })
            })
            .collect();
        assert_eq!(try_run_named_jobs("pool", 1, jobs), Err("no trace"));
        assert_eq!(ran.load(Ordering::Relaxed), 1, "queued jobs must not run");

        let jobs: Vec<_> = (0..20)
            .map(|i| (format!("ok-{i}"), move || Ok::<_, ()>(i * 3)))
            .collect();
        let expected: Vec<_> = (0..20).map(|i| i * 3).collect();
        assert_eq!(try_run_named_jobs("pool", 4, jobs), Ok(expected));
    }
}
