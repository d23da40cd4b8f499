//! End-to-end tests against the real daemon over real TCP: boot, submit,
//! poll, query, scrape, shed, shut down, reconcile.

use facade_job::{
    Dataset, ExecContext, GraphChiRunner, HyracksRunner, JobRunner, JobSpec, Workload,
};
use facade_server::{DatasetConfig, FacadeServer, ServerConfig};
use metrics::json::{self, Json};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The dataset every test daemon serves, small enough that a job takes
/// tens of milliseconds.
fn dataset_config() -> DatasetConfig {
    DatasetConfig {
        vertices: 300,
        edges: 1_200,
        corpus_bytes: 20_000,
        seed: 7,
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        acceptors: 3,
        executors: 4,
        queue_depth: 32,
        admission_budget_bytes: 1 << 30,
        dataset: dataset_config(),
        warm_boot: false,
    }
}

/// A minimal HTTP/1.1 client over std: one request, `Connection: close`.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Polls `GET /jobs/<id>` until the job is terminal; returns the final doc.
fn wait_for_job(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = http(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).expect("job status is JSON");
        match doc.get("status").and_then(Json::as_str) {
            Some("completed") | Some("failed") | Some("canceled") => return doc,
            _ if Instant::now() > deadline => panic!("job {id} never finished: {body}"),
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn submit(addr: SocketAddr, spec_json: &str) -> u64 {
    let (status, body) = http(addr, "POST", "/jobs", spec_json);
    assert_eq!(status, 202, "{body}");
    json::parse(&body)
        .expect("submission response is JSON")
        .get("job")
        .and_then(Json::as_u64)
        .expect("submission returns the job id")
}

#[test]
fn submit_poll_query_metrics_round_trip_over_tcp() {
    let server = FacadeServer::start(server_config()).expect("boot");
    let addr = server.local_addr();

    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");

    // Queries are cold before any job of that kind has completed.
    let (status, _) = http(addr, "GET", "/query/pagerank?k=3", "");
    assert_eq!(status, 503);

    let id = submit(
        addr,
        "{\"workload\": \"page_rank\", \"iterations\": 3, \"budget_bytes\": 4194304}",
    );
    let doc = wait_for_job(addr, id);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("completed"));

    // The completed job warms the query path.
    let (status, body) = http(addr, "GET", "/query/pagerank?k=5", "");
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).unwrap();
    assert_eq!(
        doc.get("top").and_then(Json::as_array).map(<[Json]>::len),
        Some(5)
    );

    // The Prometheus surface shows the submission counters.
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        body.contains("server_jobs_submitted 1"),
        "metrics must count the submission:\n{body}"
    );
    assert!(body.contains("server_jobs_completed 1"), "{body}");
    assert!(body.contains("facade_pool_available"), "{body}");

    // /stats agrees.
    let (status, body) = http(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let doc = json::parse(&body).unwrap();
    assert_eq!(
        doc.get("jobs")
            .and_then(|j| j.get("completed"))
            .and_then(Json::as_u64),
        Some(1),
        "{body}"
    );

    let report = server.shutdown();
    assert!(report.clean(), "{report}");
}

#[test]
fn eight_concurrent_submissions_are_bit_identical_to_standalone_runs() {
    // Standalone truth: run the same specs directly on the engines, no
    // server, no shared pool, no concurrency.
    let dc = dataset_config();
    let data = Dataset::synthetic(dc.vertices, dc.edges, dc.corpus_bytes, dc.seed);
    let ctx = ExecContext::default();
    let pr_spec = JobSpec {
        workload: Workload::PageRank { iterations: 3 },
        budget_bytes: 4 << 20,
        ..JobSpec::default()
    };
    let wc_spec = JobSpec {
        workload: Workload::WordCount,
        budget_bytes: 4 << 20,
        ..JobSpec::default()
    };
    let pr_truth = format!(
        "{:016x}",
        GraphChiRunner
            .execute(&pr_spec, &data, &ctx)
            .unwrap()
            .output
            .fingerprint()
    );
    let wc_truth = format!(
        "{:016x}",
        HyracksRunner
            .execute(&wc_spec, &data, &ctx)
            .unwrap()
            .output
            .fingerprint()
    );

    let server = FacadeServer::start(server_config()).expect("boot");
    let addr = server.local_addr();

    // Eight clients at once, alternating PR and WC.
    let ids: Vec<(u64, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let (spec, is_pr) = if i % 2 == 0 {
                    (pr_spec.to_json(), true)
                } else {
                    (wc_spec.to_json(), false)
                };
                scope.spawn(move || (submit(addr, &spec), is_pr))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (id, is_pr) in ids {
        let doc = wait_for_job(addr, id);
        assert_eq!(
            doc.get("status").and_then(Json::as_str),
            Some("completed"),
            "job {id}"
        );
        let result = doc.get("result").expect("completed jobs carry a result");
        let fingerprint = result
            .get("output")
            .and_then(|o| o.get("fingerprint"))
            .and_then(Json::as_str)
            .expect("output carries a fingerprint");
        let truth = if is_pr { &pr_truth } else { &wc_truth };
        assert_eq!(
            fingerprint, truth,
            "job {id} under 8-way concurrency diverged from its standalone run"
        );
        // Every facade job ran under its own epoch and reconciled.
        let epoch = result.get("epoch").expect("shared-pool jobs report epochs");
        assert_eq!(
            epoch.get("reconciled").and_then(Json::as_bool),
            Some(true),
            "job {id} leaked pages: {epoch:?}"
        );
        assert!(
            epoch.get("epoch").and_then(Json::as_u64) > Some(0),
            "jobs get real epochs, not NO_EPOCH"
        );
    }

    let report = server.shutdown();
    assert!(report.clean(), "{report}");
    assert!(report.requests_served >= 8, "{report}");
}

#[test]
fn wire_checkpoint_dir_is_confined_to_the_daemons_working_directory() {
    // No other test in this binary touches a relative path, so moving the
    // process into a scratch directory is safe — and it is what "resolved
    // against the daemon's working directory" means.
    let cwd = data_store::test_support::TempDir::new("server-cwd");
    std::fs::create_dir_all(cwd.path().join("ckpt/job1")).unwrap();
    let home = std::env::current_dir().unwrap();
    std::env::set_current_dir(cwd.path()).expect("enter the scratch directory");
    let server = FacadeServer::start(server_config()).expect("boot");
    let addr = server.local_addr();

    // Absolute, climbing, and climbing-after-descending paths never reach
    // the queue — or the filesystem.
    let outside = format!("facade-e2e-escape-{}", std::process::id());
    let tmp = std::env::temp_dir();
    for dir in [
        tmp.join(&outside).display().to_string(),
        format!("../{outside}"),
        format!("a/../../{outside}"),
    ] {
        let body = format!("{{\"workload\": \"page_rank\", \"checkpoint_dir\": \"{dir}\"}}");
        let (status, resp) = http(addr, "POST", "/jobs", &body);
        assert_eq!(status, 400, "{dir}: {resp}");
        assert!(resp.contains("checkpoint_dir"), "{resp}");
    }
    let entries = |dir: &std::path::Path| std::fs::read_dir(dir).unwrap().count();
    assert!(!tmp.join(&outside).exists() && !cwd.path().join("a").exists());
    assert_eq!(entries(cwd.path()), 1, "only `ckpt` lives in the cwd");
    let (_, stats) = http(addr, "GET", "/stats", "");
    let queued = json::parse(&stats).unwrap();
    let queued = queued.get("jobs").and_then(|j| j.get("total"));
    assert_eq!(
        queued.and_then(Json::as_u64),
        Some(0),
        "rejected before queueing: {stats}"
    );

    // A plain relative path is accepted: the job checkpoints there, every
    // interval, and leaves the directory empty when it completes.
    let id = submit(
        addr,
        "{\"workload\": \"page_rank\", \"iterations\": 2, \"intervals\": 3, \
         \"budget_bytes\": 4194304, \"checkpoint_dir\": \"ckpt/job1\"}",
    );
    let doc = wait_for_job(addr, id);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("completed"));
    let written = doc
        .get("result")
        .and_then(|r| r.get("resilience"))
        .and_then(|r| r.get("checkpoints_written"))
        .and_then(Json::as_u64);
    assert_eq!(
        written,
        Some(2 * 3),
        "one checkpoint per committed interval"
    );
    assert_eq!(entries(&cwd.path().join("ckpt/job1")), 0);
    assert_eq!(entries(cwd.path()), 1);

    let report = server.shutdown();
    assert!(report.clean(), "{report}");
    std::env::set_current_dir(home).unwrap();
}

#[test]
fn overload_sheds_through_the_ladder_and_drains_clean() {
    let mut config = server_config();
    // Capacity fits one small job; everything else must shrink or shed.
    config.admission_budget_bytes = 256 << 10;
    config.executors = 2;
    config.queue_depth = 2;
    let server = FacadeServer::start(config).expect("boot");
    let addr = server.local_addr();

    let body = "{\"workload\": \"page_rank\", \"iterations\": 2, \"budget_bytes\": 2097152}";
    let mut accepted = 0;
    let mut shed = 0;
    for _ in 0..16 {
        let (status, resp) = http(addr, "POST", "/jobs", body);
        match status {
            202 => accepted += 1,
            429 => {
                shed += 1;
                let doc = json::parse(&resp).expect("429 body is JSON");
                assert_eq!(doc.get("error").and_then(Json::as_str), Some("rejected"));
            }
            other => panic!("overload must answer 202 or 429, got {other}: {resp}"),
        }
    }
    assert!(accepted >= 1, "at least the first job fits");
    assert!(shed >= 1, "a 256 KiB budget cannot take 16 x 2 MiB jobs");

    // Drain: whatever was accepted finishes; nothing leaks.
    let report = server.shutdown();
    assert!(report.clean(), "{report}");
}

#[test]
fn shutdown_endpoint_stops_the_daemon_and_frees_the_port() {
    let server = FacadeServer::start(server_config()).expect("boot");
    let addr = server.local_addr();

    let (status, body) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200, "{body}");
    server.wait_for_shutdown_request();
    let report = server.shutdown();
    assert!(report.clean(), "{report}");
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "the listener must be gone after shutdown"
    );
}
