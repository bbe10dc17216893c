//! Equivalence oracle for the checker's two faces: a horizon sweep
//! (`Check::first`, one pass over `Pref(L)`) must name exactly the first
//! horizon at which a fresh single-horizon check (`Check::at`) is
//! solvable — across classic, ω-regular and double-omission schemes.

use minobs_core::prelude::*;
use minobs_obs::NullRecorder;
use minobs_omega::schemes as rs;
use minobs_synth::checker::{gamma_alphabet, sigma_alphabet, Budget, Check, HorizonOutcome};
use proptest::prelude::*;

/// Scheme families the oracle draws from.
const FAMILIES: usize = 22;

/// Family `family` with parameters `n` (a budget) and `letters` (a
/// prefix, read over Γ or Σ as the family needs), plus its alphabet.
fn scheme(family: usize, n: usize, letters: &[usize]) -> (Box<dyn OmissionScheme>, Vec<Letter>) {
    let spell = |chars: &str| -> String {
        let chars: Vec<char> = chars.chars().collect();
        letters.iter().map(|&i| chars[i % chars.len()]).collect()
    };
    let (gamma_word, sigma_word) = (spell("-wb"), spell("-wbx"));
    let gamma: Box<dyn OmissionScheme> = match family {
        0 => Box::new(classic::s0()),
        1 => Box::new(classic::t_white()),
        2 => Box::new(classic::t_black()),
        3 => Box::new(classic::c1()),
        4 => Box::new(classic::s1()),
        5 => Box::new(classic::r1()),
        6 => Box::new(classic::fair_gamma()),
        7 => Box::new(classic::almost_fair()),
        8 => Box::new(classic::total_budget(n)),
        9 => Box::new(ClassicScheme::AvoidPrefix(gamma_word.parse().unwrap())),
        10 => Box::new(rs::regular_s0()),
        11 => Box::new(rs::regular_t(Role::White)),
        12 => Box::new(rs::regular_c1()),
        13 => Box::new(rs::regular_s1()),
        14 => Box::new(rs::regular_r1()),
        15 => Box::new(rs::regular_fair()),
        16 => Box::new(rs::regular_almost_fair()),
        17 => Box::new(rs::regular_total_budget(n)),
        18 => Box::new(rs::regular_avoid_prefix(&gamma_word.parse().unwrap())),
        19 => return (Box::new(classic::s2()), sigma_alphabet()),
        20 => {
            let scheme = ClassicScheme::SigmaAvoidPrefix(sigma_word.parse().unwrap());
            return (Box::new(scheme), sigma_alphabet());
        }
        21 => {
            return (
                Box::new(ClassicScheme::SigmaTotalBudget(n)),
                sigma_alphabet(),
            )
        }
        _ => unreachable!("family index below FAMILIES"),
    };
    (gamma, gamma_alphabet())
}

/// `Check::first` over `from..=to`, and what per-horizon `Check::at`
/// calls say it must be.
fn swept_and_expected(
    scheme: &dyn OmissionScheme,
    alphabet: &[Letter],
    from: usize,
    to: usize,
) -> (HorizonOutcome, HorizonOutcome) {
    let check = Check {
        alphabet,
        budget: Budget::UNLIMITED,
    };
    let swept = check.first(scheme, from..=to, &mut NullRecorder);
    let first = (from..=to).find(|&k| check.at(scheme, k, &mut NullRecorder).is_solvable());
    let expected = first.map_or(
        HorizonOutcome::UnsolvableWithin(to),
        HorizonOutcome::Solvable,
    );
    (swept, expected)
}

#[test]
fn every_family_sweeps_like_its_single_checks() {
    for family in 0..FAMILIES {
        let (scheme, alphabet) = scheme(family, 1, &[1, 2]);
        let (swept, expected) = swept_and_expected(scheme.as_ref(), &alphabet, 0, 3);
        assert_eq!(swept, expected, "{}", scheme.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sweep over `from..=5` answers the first `k` in that range
    /// whose single-horizon check is solvable, or `UnsolvableWithin(5)`.
    #[test]
    fn sweep_names_the_first_solvable_single_check(
        family in 0..FAMILIES,
        n in 0..4usize,
        letters in proptest::collection::vec(0..4usize, 0..4),
        from in 0..=5usize,
    ) {
        let (scheme, alphabet) = scheme(family, n, &letters);
        let (swept, expected) = swept_and_expected(scheme.as_ref(), &alphabet, from, 5);
        prop_assert_eq!(swept, expected, "{} from {}", scheme.name(), from);
    }
}
