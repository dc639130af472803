//! Verification services.
//!
//! Verifiers are "trustable service providers that profit from selling
//! general purpose verification procedures" — their procedures, not their
//! goodwill, are what agents rely on. The honest service dispatches each
//! advice payload to the matching certificate verifier from `ra-proofs`;
//! the faulty behaviours model broken or malicious verifiers for the
//! reputation experiments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ra_exact::rat;
use ra_proofs::{
    verify_online_advice, verify_participation_certificate, verify_support_certificate,
};

use crate::inventor::GameSpec;
use crate::messages::{Advice, Party};

/// How a verifier behaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifierBehavior {
    /// Runs the genuine verification procedures.
    Honest,
    /// Rubber-stamps everything (a bought verifier).
    AlwaysAccept,
    /// Rejects everything (a saboteur).
    AlwaysReject,
    /// Accepts randomly with the given per-mille probability (a flaky
    /// implementation); seeded per verifier for determinism.
    Random {
        /// Acceptance probability in per-mille (0..=1000).
        accept_per_mille: u32,
    },
}

/// A verification service instance.
#[derive(Clone, Debug)]
pub struct VerifierService {
    /// Protocol identity.
    pub id: Party,
    /// Behaviour under test.
    pub behavior: VerifierBehavior,
}

impl VerifierService {
    /// Creates a verifier with the given identity number and behaviour.
    pub fn new(id: u64, behavior: VerifierBehavior) -> VerifierService {
        VerifierService {
            id: Party::Verifier(id),
            behavior,
        }
    }

    /// Checks `advice` for `spec`; returns `(accepted, detail)`.
    pub fn verify(&self, spec: &GameSpec, advice: &Advice) -> (bool, String) {
        match self.behavior {
            VerifierBehavior::AlwaysAccept => (true, "rubber-stamped".to_owned()),
            VerifierBehavior::AlwaysReject => (false, "refused on principle".to_owned()),
            VerifierBehavior::Random { accept_per_mille } => {
                // Deterministic per (verifier, advice) so repeated queries
                // are consistent.
                let fingerprint = format!("{:?}{:?}", self.id, advice);
                let seed = fingerprint
                    .bytes()
                    .fold(0u64, |acc, b| acc.wrapping_mul(131).wrapping_add(b as u64));
                let mut rng = StdRng::seed_from_u64(seed);
                let accepted = rng.random_range(0..1000) < accept_per_mille;
                (accepted, "flaky verdict".to_owned())
            }
            VerifierBehavior::Honest => kernel_check(spec, advice),
        }
    }
}

/// The genuine verification dispatch: each (game, advice) combination runs
/// the matching certificate checker from `ra-proofs`; mismatched
/// combinations are rejected outright. Returns `(accepted, detail)`.
///
/// This is the trusted-checker boundary of the proof-carrying split: an
/// honest verifier runs exactly this, and the certificate cache replays it
/// on every hit — the expensive solve/panel path is skipped, the cheap
/// kernel check is not.
/// It is deterministic in `(spec, advice)`.
pub fn kernel_check(spec: &GameSpec, advice: &Advice) -> (bool, String) {
    match (spec, advice) {
        (GameSpec::Strategic(game), Advice::PureNash(cert)) => match cert.verify(game) {
            Ok(theorem) => (
                true,
                format!(
                    "kernel verified {} ({} lookups)",
                    theorem.prop(),
                    theorem.cost().utility_lookups
                ),
            ),
            Err(e) => (false, format!("kernel rejected proof: {e}")),
        },
        (GameSpec::Bimatrix(game), Advice::Support(cert)) => {
            match verify_support_certificate(game, cert) {
                Ok(verified) => (
                    true,
                    format!(
                        "P1 verified, λ1 = {}, λ2 = {}",
                        verified.lambda1, verified.lambda2
                    ),
                ),
                Err(e) => (false, format!("P1 rejected: {e}")),
            }
        }
        (GameSpec::Participation(params), Advice::Participation(cert)) => {
            if &cert.params != params {
                return (false, "certificate for different parameters".to_owned());
            }
            match verify_participation_certificate(cert, &rat(1, 1 << 20)) {
                Ok(verified) => (
                    true,
                    format!("Eq.(5) verified, expected gain {}", verified.expected_gain),
                ),
                Err(e) => (false, format!("participation advice rejected: {e}")),
            }
        }
        (
            GameSpec::ParallelLinks {
                current_loads,
                own_load,
                ..
            },
            Advice::Online(cert),
        ) => {
            // The certificate must match the published statistics the agent
            // observed (they are signed — see audit.rs).
            if &cert.current_loads != current_loads || &cert.own_load != own_load {
                return (
                    false,
                    "certificate statistics differ from published ones".to_owned(),
                );
            }
            match verify_online_advice(cert) {
                Ok(verified) => (
                    true,
                    format!(
                        "equilibrium assignment verified; take link {} (predicted delay {})",
                        verified.link, verified.predicted_own_delay
                    ),
                ),
                Err(e) => (false, format!("online advice rejected: {e}")),
            }
        }
        _ => (false, "advice type does not match the game".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inventor::{Inventor, InventorBehavior};
    use ra_games::named::prisoners_dilemma;
    use ra_solvers::ParticipationParams;

    fn specs() -> Vec<GameSpec> {
        vec![
            GameSpec::Strategic(prisoners_dilemma().to_strategic()),
            GameSpec::Bimatrix(ra_games::named::battle_of_the_sexes()),
            GameSpec::Participation(ParticipationParams::paper_example()),
            GameSpec::ParallelLinks {
                current_loads: vec![rat(3, 1), rat(1, 1)],
                own_load: rat(2, 1),
                expected_future_load: rat(3, 2),
                expected_future_agents: 3,
            },
        ]
    }

    #[test]
    fn honest_verifier_accepts_honest_advice_everywhere() {
        let inventor = Inventor::new(0, InventorBehavior::Honest);
        let verifier = VerifierService::new(0, VerifierBehavior::Honest);
        for spec in specs() {
            let advice = inventor.advise(&spec).expect("honest advice exists");
            let (accepted, detail) = verifier.verify(&spec, &advice);
            assert!(accepted, "{detail}");
        }
    }

    #[test]
    fn honest_verifier_rejects_corrupt_advice_everywhere() {
        let inventor = Inventor::new(0, InventorBehavior::Corrupt);
        let verifier = VerifierService::new(0, VerifierBehavior::Honest);
        for spec in specs() {
            let advice = inventor.advise(&spec).expect("corrupt advice exists");
            let (accepted, detail) = verifier.verify(&spec, &advice);
            assert!(!accepted, "corruption must be caught, got: {detail}");
        }
    }

    #[test]
    fn mismatched_advice_type_rejected() {
        let verifier = VerifierService::new(0, VerifierBehavior::Honest);
        let inventor = Inventor::new(0, InventorBehavior::Honest);
        let bimatrix_spec = GameSpec::Bimatrix(ra_games::named::battle_of_the_sexes());
        let advice = inventor.advise(&bimatrix_spec).unwrap();
        let wrong_spec = GameSpec::Participation(ParticipationParams::paper_example());
        let (accepted, _) = verifier.verify(&wrong_spec, &advice);
        assert!(!accepted);
    }

    #[test]
    fn broken_behaviors() {
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let advice = Inventor::new(0, InventorBehavior::Corrupt)
            .advise(&spec)
            .unwrap();
        let (a, _) = VerifierService::new(1, VerifierBehavior::AlwaysAccept).verify(&spec, &advice);
        assert!(a, "bought verifier rubber-stamps garbage");
        let honest_advice = Inventor::new(0, InventorBehavior::Honest)
            .advise(&spec)
            .unwrap();
        let (r, _) =
            VerifierService::new(2, VerifierBehavior::AlwaysReject).verify(&spec, &honest_advice);
        assert!(!r);
    }

    #[test]
    fn random_verifier_is_deterministic_per_advice() {
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let advice = Inventor::new(0, InventorBehavior::Honest)
            .advise(&spec)
            .unwrap();
        let flaky = VerifierService::new(
            3,
            VerifierBehavior::Random {
                accept_per_mille: 500,
            },
        );
        let first = flaky.verify(&spec, &advice);
        let second = flaky.verify(&spec, &advice);
        assert_eq!(first, second);
    }
}
