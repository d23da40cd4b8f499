//! A wrong output or a wrong HTTP status must be counted as a failed
//! operation and must flip `correct`.

use facade_benchmark::harness::{Checks, Workload};
use facade_benchmark::http::{Reply, parse_reply};
use facade_benchmark::oracle;
use facade_benchmark::report::{RunReport, Samples};
use facade_benchmark::workloads::dataflow_batch::{self, DataflowBatch};
use facade_benchmark::workloads::serve_mix::expect_reply;
use facade_job::JobOutput;

#[test]
fn a_corrupted_word_count_is_counted() {
    let seed = 7;
    let words = dataflow_batch::generate(seed);
    let mut counts = oracle::word_count(&words);
    let (rows, checksum) = oracle::external_sort(&words, dataflow_batch::PARTITIONS);
    let es = JobOutput::ExternalSort { rows, checksum };
    let output = |counts: &[(String, i64)]| JobOutput::WordCount {
        distinct: counts.len() as u64,
        total: words.len() as i64,
        counts: counts.to_vec(),
    };
    let workload = DataflowBatch::setup(seed, &mut Samples::default(), &mut Checks::default());

    let mut checks = Checks::default();
    workload.check_outputs(&output(&counts), &es, &mut checks);
    assert_eq!(
        (checks.attempted, checks.failed),
        (2, 0),
        "the true output passes"
    );

    counts[3].1 += 1;
    workload.check_outputs(&output(&counts), &es, &mut checks);
    assert_eq!(
        (checks.attempted, checks.failed),
        (4, 1),
        "one count off by one"
    );
    assert!(checks.failures[0].contains("WordCount"));

    let wrong_sum = JobOutput::ExternalSort {
        rows,
        checksum: checksum ^ 1,
    };
    counts[3].1 -= 1;
    workload.check_outputs(&output(&counts), &wrong_sum, &mut checks);
    assert_eq!((checks.attempted, checks.failed), (6, 2));
}

#[test]
fn a_corrupted_http_status_is_counted() {
    let raw = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{\"job\": 3}";
    let good = parse_reply(raw).expect("well-formed response");
    assert_eq!(good.status, 200);
    assert!(expect_reply(Ok(good.clone()), 200).is_ok());

    let corrupted = Reply {
        status: 500,
        ..good.clone()
    };
    let shed = Reply {
        status: 429,
        ..good
    };
    let mut checks = Checks::default();
    for (reply, want) in [(corrupted, 200), (shed, 202)] {
        let decoded = expect_reply(Ok(reply), want);
        checks.check(decoded.is_ok(), || decoded.clone().unwrap_err());
    }
    let refused = expect_reply(Err(std::io::ErrorKind::ConnectionRefused.into()), 200);
    checks.check(refused.is_ok(), || refused.clone().unwrap_err());
    let not_json = expect_reply(
        Ok(Reply {
            status: 200,
            body: "<html>".into(),
        }),
        200,
    );
    checks.check(not_json.is_ok(), || not_json.clone().unwrap_err());
    assert_eq!((checks.attempted, checks.failed), (4, 4));
    assert!(checks.failures[0].contains("status 500 instead of 200"));
    assert!(parse_reply("garbage").is_none());
}

#[test]
fn a_failed_operation_flips_correct_in_the_result_line() {
    let mut checks = Checks::default();
    checks.check(true, || unreachable!());
    checks.check(false, || "lost a job".into());
    let report = RunReport {
        workload: "serve_mix",
        seed: 1,
        traced: false,
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.failures,
        samples: Samples::default(),
    };
    let line = report.result_json();
    let doc = metrics::json::parse(&line).expect("result line is JSON");
    assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(report.failed_share(), 0.5);
    assert!(report.table().contains("FAILED: lost a job"));
}
