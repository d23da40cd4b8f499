//! HTTP routing: the endpoint surface documented in `docs/SERVER.md`.

use crate::server::ServerState;
use facade_job::{JobError, JobOutput, JobReport, JobSpec, JobStatus};
use metrics::json;
use metrics::{Handler, Request, Response};
use std::sync::Arc;

/// Routes requests against the daemon's resident state.
pub(crate) struct Router {
    pub(crate) state: Arc<ServerState>,
}

impl Handler for Router {
    fn handle(&self, request: &Request) -> Response {
        self.state.registry.counter("server_requests_total").inc();
        let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => Response::json(200, "{\"status\": \"ok\"}"),
            ("GET", ["stats"]) => self.stats(),
            ("GET", ["metrics"]) => self.metrics(),
            ("POST", ["jobs"]) => self.submit(request),
            ("GET", ["jobs"]) => self.list_jobs(),
            ("GET", ["jobs", id]) => self.job_status(id),
            ("POST", ["jobs", id, "cancel"]) => self.cancel(id),
            ("GET", ["query", "pagerank"]) => self.query_pagerank(request),
            ("GET", ["query", "cc"]) => self.query_cc(request),
            ("GET", ["query", "wc"]) => self.query_wc(request),
            ("POST", ["shutdown"]) => {
                self.state.request_shutdown();
                Response::json(200, "{\"shutting_down\": true}")
            }
            (
                _,
                ["healthz" | "stats" | "metrics" | "jobs" | "shutdown"]
                | ["jobs", _]
                | ["jobs", _, "cancel"]
                | ["query", "pagerank" | "cc" | "wc"],
            ) => Response::method_not_allowed(),
            _ => Response::not_found("see docs/SERVER.md for the endpoint list"),
        }
    }
}

impl Router {
    fn metrics(&self) -> Response {
        self.state.refresh_gauges();
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: self.state.registry.render_prometheus(),
        }
    }

    fn stats(&self) -> Response {
        self.state.refresh_gauges();
        let jobs = self.state.jobs.lock().unwrap_or_else(|p| p.into_inner());
        let by_status = |status: JobStatus| {
            jobs.values()
                .filter(|e| e.handle.status() == status)
                .count()
        };
        let counters = self.state.pool.counters();
        Response::json(
            200,
            format!(
                "{{\"jobs\": {{\"total\": {}, \"queued\": {}, \"running\": {}, \
                 \"completed\": {}, \"failed\": {}, \"canceled\": {}}}, \
                 \"pool\": {{\"available_pages\": {}, \"pages_handed_out\": {}, \
                 \"pages_returned\": {}, \"live_epochs\": {}}}, \
                 \"admission\": {{\"capacity_bytes\": {}, \"committed_bytes\": {}}}, \
                 \"dataset\": {{\"vertices\": {}, \"corpus_words\": {}}}}}",
                jobs.len(),
                by_status(JobStatus::Queued),
                by_status(JobStatus::Running),
                by_status(JobStatus::Completed),
                by_status(JobStatus::Failed),
                by_status(JobStatus::Canceled),
                self.state.pool.available(),
                counters.pages_handed_out,
                counters.pages_returned,
                self.state.pool.live_epochs(),
                self.state.admission.capacity_bytes(),
                self.state.admission.committed_bytes(),
                self.state.dataset.graph.vertices,
                self.state.dataset.corpus.len(),
            ),
        )
    }

    fn submit(&self, request: &Request) -> Response {
        let body = match std::str::from_utf8(&request.body) {
            Ok(body) => body,
            Err(_) => return Response::bad_request("job spec must be UTF-8 JSON"),
        };
        let spec = match JobSpec::from_json(body) {
            Ok(spec) => spec,
            Err(e) => return Response::bad_request(&e.to_string()),
        };
        match self.state.submit(spec) {
            Ok((id, shrinks)) => Response::json(
                202,
                format!(
                    "{{\"job\": {id}, \"status\": \"queued\", \"admission_shrinks\": {shrinks}}}"
                ),
            ),
            Err(e) => error_response(&e),
        }
    }

    fn list_jobs(&self) -> Response {
        let jobs = self.state.jobs.lock().unwrap_or_else(|p| p.into_inner());
        let rows: Vec<String> = jobs
            .iter()
            .map(|(id, entry)| {
                format!(
                    "{{\"job\": {id}, \"workload\": \"{}\", \"status\": \"{}\", \"tag\": \"{}\"}}",
                    entry.spec.workload.kind(),
                    entry.handle.status().name(),
                    json::escape(&entry.spec.tag),
                )
            })
            .collect();
        Response::json(200, format!("{{\"jobs\": [{}]}}", rows.join(", ")))
    }

    fn job_status(&self, id: &str) -> Response {
        let Ok(id) = id.parse::<u64>() else {
            return Response::bad_request("job id must be an integer");
        };
        let jobs = self.state.jobs.lock().unwrap_or_else(|p| p.into_inner());
        let Some(entry) = jobs.get(&id) else {
            return Response::not_found("no such job");
        };
        let mut body = format!(
            "{{\"job\": {id}, \"workload\": \"{}\", \"status\": \"{}\", \
             \"admission_shrinks\": {}",
            entry.spec.workload.kind(),
            entry.handle.status().name(),
            entry.admission_shrinks,
        );
        match entry.handle.report() {
            Some(Ok(report)) => {
                body.push_str(&format!(", \"result\": {}", report_json(&report)));
            }
            Some(Err(e)) => {
                body.push_str(&format!(", \"error\": {}", e.to_json()));
            }
            None => {}
        }
        body.push('}');
        Response::json(200, body)
    }

    fn cancel(&self, id: &str) -> Response {
        let Ok(id) = id.parse::<u64>() else {
            return Response::bad_request("job id must be an integer");
        };
        let jobs = self.state.jobs.lock().unwrap_or_else(|p| p.into_inner());
        let Some(entry) = jobs.get(&id) else {
            return Response::not_found("no such job");
        };
        let in_time = entry.handle.cancel();
        Response::json(
            200,
            format!("{{\"job\": {id}, \"cancel_requested\": true, \"still_pending\": {in_time}}}"),
        )
    }

    /// The cached report for one workload kind and its output's
    /// fingerprint, or the 503 the caller should return while no job of
    /// that kind has completed yet.
    fn cached(&self, kind: &str) -> Result<(Arc<JobReport>, u64), Response> {
        let results = self.state.results.lock().unwrap_or_else(|p| p.into_inner());
        results.get(kind).cloned().ok_or_else(|| {
            Response::json(
                503,
                format!(
                    "{{\"error\": \"warming\", \"message\": \"no completed {kind} job yet; \
                     submit one via POST /jobs\"}}"
                ),
            )
        })
    }

    fn query_pagerank(&self, request: &Request) -> Response {
        let k = match request.query_value("k").map(str::parse::<usize>) {
            None => 10,
            Some(Ok(k)) => k,
            Some(Err(_)) => return Response::bad_request("k must be an integer"),
        };
        let (report, fingerprint) = match self.cached("page_rank") {
            Ok(cached) => cached,
            Err(resp) => return resp,
        };
        let JobOutput::Vertices { values } = &report.output else {
            return Response::json(
                500,
                "{\"error\": \"cached page_rank result has wrong shape\"}",
            );
        };
        let mut ranked: Vec<(usize, f64)> = values.iter().copied().enumerate().collect();
        // Deterministic order: rank descending, vertex id ascending on ties.
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        let rows: Vec<String> = ranked
            .iter()
            .map(|(v, rank)| format!("{{\"vertex\": {v}, \"rank\": {rank}}}"))
            .collect();
        Response::json(
            200,
            format!(
                "{{\"k\": {k}, \"top\": [{}], \"fingerprint\": \"{:016x}\"}}",
                rows.join(", "),
                fingerprint
            ),
        )
    }

    fn query_cc(&self, request: &Request) -> Response {
        let vertex = match request.query_value("vertex").map(str::parse::<usize>) {
            Some(Ok(v)) => v,
            _ => return Response::bad_request("vertex must be an integer query parameter"),
        };
        let (report, fingerprint) = match self.cached("connected_components") {
            Ok(cached) => cached,
            Err(resp) => return resp,
        };
        let JobOutput::Vertices { values } = &report.output else {
            return Response::json(
                500,
                "{\"error\": \"cached connected_components result has wrong shape\"}",
            );
        };
        let Some(label) = values.get(vertex) else {
            return Response::not_found("vertex id out of range");
        };
        let size = values.iter().filter(|v| *v == label).count();
        Response::json(
            200,
            format!(
                "{{\"vertex\": {vertex}, \"component\": {}, \"size\": {size}, \
                 \"fingerprint\": \"{:016x}\"}}",
                *label as u64, fingerprint
            ),
        )
    }

    fn query_wc(&self, request: &Request) -> Response {
        let Some(word) = request.query_value("word") else {
            return Response::bad_request("word must be given as a query parameter");
        };
        let (report, fingerprint) = match self.cached("word_count") {
            Ok(cached) => cached,
            Err(resp) => return resp,
        };
        let JobOutput::WordCount { counts, .. } = &report.output else {
            return Response::json(
                500,
                "{\"error\": \"cached word_count result has wrong shape\"}",
            );
        };
        let count = counts
            .binary_search_by(|(w, _)| w.as_str().cmp(word))
            .ok()
            .map_or(0, |i| counts[i].1);
        Response::json(
            200,
            format!(
                "{{\"word\": \"{}\", \"count\": {count}, \"fingerprint\": \"{:016x}\"}}",
                json::escape(word),
                fingerprint
            ),
        )
    }
}

/// Renders a completed job's report for `GET /jobs/<id>`.
fn report_json(report: &JobReport) -> String {
    let mut body = format!(
        "{{\"output\": {}, \"elapsed_ms\": {}, \"resilience\": {{\"retries\": {}, \
         \"degradations\": {}, \"faults_injected\": {}, \"checkpoints_written\": {}, \
         \"recoveries\": {}}}",
        report.output.summary_json(),
        report.elapsed.as_millis(),
        report.resilience.retries,
        report.resilience.degradations,
        report.resilience.faults_injected,
        report.resilience.checkpoints_written,
        report.resilience.recoveries,
    );
    if let Some(epoch) = &report.epoch {
        body.push_str(&format!(
            ", \"epoch\": {{\"epoch\": {}, \"pages_out\": {}, \"pages_in\": {}, \
             \"pages_created\": {}, \"reconciled\": {}}}",
            epoch.epoch,
            epoch.ledger.pages_out,
            epoch.ledger.pages_in,
            epoch.pages_created,
            epoch.reconciled,
        ));
    }
    body.push('}');
    body
}

/// Maps a submission-path [`JobError`] to its HTTP status.
fn error_response(error: &JobError) -> Response {
    let status = match error {
        JobError::Invalid(_) => 400,
        JobError::Rejected(_) => 429,
        JobError::Canceled => 409,
        JobError::Failed(_) => 500,
    };
    Response::json(status, error.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionController;
    use data_store::PagePool;
    use facade_job::{Dataset, Dispatcher, DispatcherConfig};
    use metrics::Registry;
    use std::collections::BTreeMap;
    use std::sync::{Condvar, Mutex};

    fn request(method: &str, path: &str, query: &[(&str, &str)], body: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn router() -> Router {
        let dataset = Dataset::synthetic(120, 500, 10_000, 11);
        let mut config = DispatcherConfig::new(2, dataset.clone());
        config.pool = Some(Arc::new(PagePool::with_default_config()));
        config.queue_depth = 16;
        Router {
            state: Arc::new(ServerState {
                pool: Arc::clone(config.pool.as_ref().unwrap()),
                dispatcher: Mutex::new(Some(Dispatcher::new(config))),
                admission: AdmissionController::new(256 << 20),
                dataset,
                jobs: Mutex::new(BTreeMap::new()),
                results: Mutex::new(BTreeMap::new()),
                registry: Arc::new(Registry::new()),
                shutdown_requested: (Mutex::new(false), Condvar::new()),
                draining: std::sync::atomic::AtomicBool::new(false),
            }),
        }
    }

    fn wait_all(router: &Router) {
        let handles: Vec<_> = {
            let jobs = router.state.jobs.lock().unwrap();
            jobs.values().map(|e| e.handle.clone()).collect()
        };
        for h in handles {
            let _ = h.wait();
        }
    }

    #[test]
    fn submit_poll_and_query_round_trip() {
        let router = router();
        let resp = router.handle(&request(
            "POST",
            "/jobs",
            &[],
            "{\"workload\": \"page_rank\", \"iterations\": 3, \"budget_bytes\": 4194304}",
        ));
        assert_eq!(resp.status, 202, "{}", resp.body);
        wait_all(&router);
        let resp = router.handle(&request("GET", "/jobs/1", &[], ""));
        assert_eq!(resp.status, 200);
        let doc = json::parse(&resp.body).expect("status is JSON");
        assert_eq!(
            doc.get("status").and_then(json::Json::as_str),
            Some("completed"),
            "{}",
            resp.body
        );
        let resp = router.handle(&request("GET", "/query/pagerank", &[("k", "5")], ""));
        assert_eq!(resp.status, 200);
        let doc = json::parse(&resp.body).expect("query is JSON");
        assert_eq!(
            doc.get("top")
                .and_then(json::Json::as_array)
                .map(<[json::Json]>::len),
            Some(5),
            "{}",
            resp.body
        );
    }

    #[test]
    fn queries_return_503_until_a_job_of_that_kind_completes() {
        let router = router();
        for (path, query) in [
            ("/query/pagerank", ("k", "3")),
            ("/query/cc", ("vertex", "0")),
            ("/query/wc", ("word", "the")),
        ] {
            let resp = router.handle(&request("GET", path, &[query], ""));
            assert_eq!(resp.status, 503, "{path} before any job: {}", resp.body);
        }
    }

    #[test]
    fn wc_and_cc_queries_answer_from_the_cache() {
        let router = router();
        for body in [
            "{\"workload\": \"word_count\"}",
            "{\"workload\": \"connected_components\", \"iterations\": 20}",
        ] {
            let resp = router.handle(&request("POST", "/jobs", &[], body));
            assert_eq!(resp.status, 202, "{}", resp.body);
        }
        wait_all(&router);
        let resp = router.handle(&request("GET", "/query/cc", &[("vertex", "3")], ""));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let doc = json::parse(&resp.body).unwrap();
        assert!(doc.get("size").and_then(json::Json::as_u64).unwrap() >= 1);
        // A word that the corpus is guaranteed not to contain.
        let resp = router.handle(&request(
            "GET",
            "/query/wc",
            &[("word", "zzz-not-a-word")],
            "",
        ));
        assert_eq!(resp.status, 200);
        let doc = json::parse(&resp.body).unwrap();
        assert_eq!(doc.get("count").and_then(json::Json::as_u64), Some(0));
    }

    #[test]
    fn bad_requests_get_400_unknown_paths_404_wrong_methods_405() {
        let router = router();
        assert_eq!(
            router
                .handle(&request("POST", "/jobs", &[], "not json"))
                .status,
            400
        );
        assert_eq!(
            router
                .handle(&request("POST", "/jobs", &[], "{\"workers\": 0}"))
                .status,
            400
        );
        assert_eq!(router.handle(&request("GET", "/nope", &[], "")).status, 404);
        assert_eq!(
            router.handle(&request("DELETE", "/jobs", &[], "")).status,
            405
        );
        assert_eq!(
            router.handle(&request("GET", "/jobs/zed", &[], "")).status,
            400
        );
        assert_eq!(
            router.handle(&request("GET", "/jobs/999", &[], "")).status,
            404
        );
        assert_eq!(
            router.handle(&request("GET", "/query/cc", &[], "")).status,
            400,
            "cc without a vertex parameter"
        );
    }

    #[test]
    fn oversubmission_is_shed_with_429_not_a_panic() {
        // Capacity fits one floor-budget job only; the queue is tiny too.
        let dataset = Dataset::synthetic(100, 400, 8_000, 2);
        let mut config = DispatcherConfig::new(1, dataset.clone());
        config.queue_depth = 1;
        let router = Router {
            state: Arc::new(ServerState {
                pool: Arc::new(PagePool::with_default_config()),
                dispatcher: Mutex::new(Some(Dispatcher::new(config))),
                admission: AdmissionController::new(128 << 10),
                dataset,
                jobs: Mutex::new(BTreeMap::new()),
                results: Mutex::new(BTreeMap::new()),
                registry: Arc::new(Registry::new()),
                shutdown_requested: (Mutex::new(false), Condvar::new()),
                draining: std::sync::atomic::AtomicBool::new(false),
            }),
        };
        let body = "{\"workload\": \"page_rank\", \"iterations\": 2, \"budget_bytes\": 1048576}";
        let mut saw_429 = false;
        let mut saw_shrink = false;
        for _ in 0..12 {
            let resp = router.handle(&request("POST", "/jobs", &[], body));
            match resp.status {
                202 => {
                    let doc = json::parse(&resp.body).unwrap();
                    if doc.get("admission_shrinks").and_then(json::Json::as_u64) > Some(0) {
                        saw_shrink = true;
                    }
                }
                429 => saw_429 = true,
                other => panic!("unexpected status {other}: {}", resp.body),
            }
        }
        assert!(saw_429, "overload must shed with 429");
        assert!(
            saw_shrink,
            "1 MiB submissions into a 128 KiB budget must walk shrink rungs"
        );
        wait_all(&router);
    }

    #[test]
    fn cancel_endpoint_reaches_queued_jobs() {
        let router = router();
        // Saturate both executors so a third job queues.
        for _ in 0..3 {
            let resp = router.handle(&request(
                "POST",
                "/jobs",
                &[],
                "{\"workload\": \"page_rank\", \"iterations\": 4}",
            ));
            assert_eq!(resp.status, 202);
        }
        let resp = router.handle(&request("POST", "/jobs/3/cancel", &[], ""));
        assert_eq!(resp.status, 200, "{}", resp.body);
        wait_all(&router);
        let resp = router.handle(&request("GET", "/jobs/3", &[], ""));
        let doc = json::parse(&resp.body).unwrap();
        let status = doc.get("status").and_then(json::Json::as_str).unwrap();
        // The job either was still queued (canceled) or had already been
        // picked up (ran to completion) — both are legal; what matters is
        // that cancel landed and nothing wedged.
        assert!(
            status == "canceled" || status == "completed",
            "{}",
            resp.body
        );
    }

    #[test]
    fn shutdown_endpoint_flags_the_lifecycle_handle() {
        let router = router();
        let resp = router.handle(&request("POST", "/shutdown", &[], ""));
        assert_eq!(resp.status, 200);
        let (lock, _) = &router.state.shutdown_requested;
        assert!(*lock.lock().unwrap());
    }
}
