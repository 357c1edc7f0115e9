//! Coordinates cross the JSON dialect bit for bit: every finite `f64` —
//! 17-digit values, subnormals, `-0.0`, integers at and above 1e17 — is
//! written as the shortest decimal that reads back as the same bits, in
//! ingest blocks (with weights), served coresets and cluster centres.

use fc_clustering::{CostKind, Solver};
use fc_core::plan::Method;
use fc_core::PointBlock;
use fc_service::protocol::{Request, Response};
use proptest::prelude::*;

/// Any finite bit pattern, with the shapes a uniform draw rarely hits
/// mixed in.
fn coordinate() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => any::<u64>().prop_map(|bits| {
            let x = f64::from_bits(bits);
            // Clearing the top exponent bit makes any pattern finite.
            if x.is_finite() { x } else { f64::from_bits(bits & !(1 << 62)) }
        }),
        1 => any::<u64>().prop_map(|bits| f64::from_bits(bits & 0x800f_ffff_ffff_ffff)),
        1 => (100_000_000_000_000_000u64..u64::MAX).prop_map(|n| n as f64),
        1 => (-(1i64 << 60)..1i64 << 60).prop_map(|n| n as f64),
        1 => Just(-0.0),
    ]
}

fn weight() -> impl Strategy<Value = f64> {
    coordinate().prop_map(|x| if x < 0.0 { -x } else { x })
}

/// `rows x dim` coordinates with one weight per row.
fn rows() -> impl Strategy<Value = (Vec<f64>, usize, Vec<f64>)> {
    (1usize..5, 1usize..9).prop_flat_map(|(dim, rows)| {
        (
            prop::collection::vec(coordinate(), dim * rows),
            Just(dim),
            prop::collection::vec(weight(), rows),
        )
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

fn flat(rows: &[Vec<f64>]) -> Vec<f64> {
    rows.concat()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ingest_blocks_cross_json_bit_for_bit((data, dim, weights) in rows()) {
        let block = PointBlock::new(data, dim, Some(weights)).expect("finite, non-negative");
        let request = Request::Ingest {
            dataset: "d".into(),
            block: block.clone(),
            plan: None,
            ident: None,
            epoch: None,
        };
        match Request::from_json(&request.to_json()).expect("json line decodes") {
            Request::Ingest { block: back, .. } => {
                prop_assert_eq!(back.dim(), block.dim());
                prop_assert_eq!(bits(back.data()), bits(block.data()));
                prop_assert_eq!(
                    bits(back.weights().expect("weighted")),
                    bits(block.weights().expect("weighted"))
                );
            }
            other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
        }
    }

    #[test]
    fn coresets_cross_json_bit_for_bit((data, dim, weights) in rows()) {
        let points: Vec<Vec<f64>> = data.chunks(dim).map(<[f64]>::to_vec).collect();
        let response = Response::Coreset {
            dataset: "d".into(),
            points: points.clone(),
            weights: weights.clone(),
            method: Method::FastCoreset,
            seed: 3,
        };
        match Response::from_json(&response.to_json()).expect("json line decodes") {
            Response::Coreset { points: p, weights: w, .. } => {
                prop_assert_eq!(p.len(), points.len());
                prop_assert_eq!(bits(&flat(&p)), bits(&data));
                prop_assert_eq!(bits(&w), bits(&weights));
            }
            other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
        }
    }

    #[test]
    fn centers_cross_json_bit_for_bit((data, dim, costs) in rows()) {
        let centers: Vec<Vec<f64>> = data.chunks(dim).map(<[f64]>::to_vec).collect();
        let response = Response::Clustered {
            dataset: "d".into(),
            centers: centers.clone(),
            kind: CostKind::KMeans,
            solver: Solver::Lloyd,
            coreset_cost: costs[0],
            coreset_points: 10,
            seed: 8,
        };
        match Response::from_json(&response.to_json()).expect("json line decodes") {
            Response::Clustered { centers: c, coreset_cost, .. } => {
                prop_assert_eq!(c.len(), centers.len());
                prop_assert_eq!(bits(&flat(&c)), bits(&data));
                prop_assert_eq!(coreset_cost.to_bits(), costs[0].to_bits());
            }
            other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
        }
    }
}
