//! The `QFE_PARANOIA` self-check mode: advances are spot-validated against a
//! fresh rebuild, and a divergence degrades gracefully to the rebuilt context
//! instead of serving drifted state.
//!
//! This lives in its own integration-test binary because the sampling
//! interval is parsed from the environment once per process — the variable
//! must be set before the first `advance` anywhere in the process.

use qfe_core::{paranoia_checks, paranoia_mismatches, AdvancePath, GenerationContext};

#[test]
fn paranoia_mode_spot_validates_shrinking_advances() {
    std::env::set_var("QFE_PARANOIA", "1");

    let (db, result, candidates, _) = qfe_datasets::example_1_1();
    let ctx = GenerationContext::new(&db, &result, &candidates).unwrap();

    // A candidate-shrinking advance without edits — the path every feedback
    // round takes — shares the relational state, remaps the source classes
    // and gets audited.
    let (advanced, report) = ctx.advance_with_report(&[0, 2], &[]).unwrap();
    assert_eq!(report.path, AdvancePath::SharedNoEdit);
    assert!(
        report.paranoia_checked,
        "QFE_PARANOIA=1 checks every advance"
    );
    assert!(
        report.paranoia_mismatch.is_none(),
        "a correct advance must pass its own audit: {:?}",
        report.paranoia_mismatch
    );
    assert_eq!(advanced.query_count(), 2);

    // The next round shrinks again and is audited too.
    let (_, report) = advanced.advance_with_report(&[1], &[]).unwrap();
    assert_eq!(report.path, AdvancePath::SharedNoEdit);
    assert!(report.paranoia_checked);
    assert!(report.paranoia_mismatch.is_none());

    assert!(paranoia_checks() >= 2, "both advances were sampled");
    assert_eq!(paranoia_mismatches(), 0, "no divergence on healthy paths");
}

#[test]
fn divergence_audit_reports_real_differences() {
    // The comparator behind the paranoia check: reflexively clean, and a
    // context with a different surviving-candidate set is named as divergent.
    let (db, result, candidates, _) = qfe_datasets::example_1_1();
    let ctx = GenerationContext::new(&db, &result, &candidates).unwrap();
    assert!(ctx.divergence_from(&ctx).is_none());

    let fewer = GenerationContext::new(&db, &result, &candidates[..2]).unwrap();
    let reason = ctx.divergence_from(&fewer);
    assert!(reason.is_some(), "candidate-count drift must be detected");
}
