//! Order-statistics helpers: medians, quartiles, percentiles, and the
//! highest tail percentile a sample can support.

use facade_benchmark::stats::{iqr_rel, median, percentile, quartiles, tail_percentile};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
    assert!(median(&[]).is_nan());
}

#[test]
fn quartiles_agree_with_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartiles(&ramp(10)), (2.75, 5.5, 8.25));
    // statistics.quantiles([2, 4, 4, 5, 7, 9, 12], n=4) == [4.0, 5.0, 9.0]
    assert_eq!(
        quartiles(&[12.0, 2.0, 4.0, 9.0, 4.0, 5.0, 7.0]),
        (4.0, 5.0, 9.0)
    );
    assert_eq!(iqr_rel(&ramp(10)), 1.0);
    assert_eq!(iqr_rel(&[5.0, 5.0, 5.0, 5.0]), 0.0);
}

#[test]
fn percentile_is_nearest_rank() {
    let v = ramp(100);
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 90.0), 90.0);
    assert_eq!(percentile(&v, 99.0), 99.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert_eq!(percentile(&[10.0, 20.0, 30.0], 34.0), 20.0);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(&ramp(39)), None);
    assert_eq!(tail_percentile(&ramp(40)), Some((75.0, 30.0)));
    // 100 samples: ten lie beyond p90, only five beyond p95.
    assert_eq!(tail_percentile(&ramp(100)), Some((90.0, 90.0)));
    assert_eq!(tail_percentile(&ramp(199)), Some((90.0, 180.0)));
    assert_eq!(tail_percentile(&ramp(200)), Some((95.0, 190.0)));
    assert_eq!(tail_percentile(&ramp(1_000)), Some((99.0, 990.0)));
    assert_eq!(tail_percentile(&ramp(10_000)), Some((99.9, 9_990.0)));
}
