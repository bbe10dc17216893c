//! Generators for the graph families swept by the Section V experiments.

use crate::graph::Graph;
use rand::seq::SliceRandom;
use rand::{Rng, RngExt as _};

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::empty(n);
    for u in 0..n {
        for v in u + 1..n {
            g.add_edge(u, v);
        }
    }
    g
}

/// The cycle `C_n` (`n ≥ 3`).
///
/// # Panics
/// Panics for `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))
}

/// The path `P_n` (`n ≥ 2`).
pub fn path(n: usize) -> Graph {
    assert!(n >= 2, "a path needs at least 2 vertices");
    Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1)))
}

/// The star `K_{1,n-1}` with center 0.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "a star needs at least 2 vertices");
    Graph::from_edges(n, (1..n).map(|i| (0, i)))
}

/// The `rows × cols` grid.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 1 && cols >= 1);
    let id = |r: usize, c: usize| r * cols + c;
    let mut g = Graph::empty(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c));
            }
        }
    }
    g
}

/// The `rows × cols` torus (wrap-around grid; needs ≥ 3 per dimension to
/// stay simple).
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus needs ≥ 3 per dimension");
    let id = |r: usize, c: usize| r * cols + c;
    let mut g = Graph::empty(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            g.add_edge(id(r, c), id(r, (c + 1) % cols));
            g.add_edge(id(r, c), id((r + 1) % rows, c));
        }
    }
    g
}

/// The `d`-dimensional hypercube `Q_d` on `2^d` vertices.
pub fn hypercube(d: u32) -> Graph {
    let n = 1usize << d;
    let mut g = Graph::empty(n);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if u > v {
                g.add_edge(v, u);
            }
        }
    }
    g
}

/// The complete bipartite graph `K_{a,b}`.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut g = Graph::empty(a + b);
    for u in 0..a {
        for v in 0..b {
            g.add_edge(u, a + v);
        }
    }
    g
}

/// A barbell: two disjoint `K_m` joined by `bridges` vertex-disjoint
/// bridge edges. The canonical `c(G) < deg(G)` family of Section V
/// (`c = bridges`, `deg = m - 1` for `bridges < m`).
///
/// # Panics
/// Panics when `bridges > m` (not enough distinct endpoints) or `m < 2`.
pub fn barbell(m: usize, bridges: usize) -> Graph {
    assert!(m >= 2, "barbell cliques need ≥ 2 vertices");
    assert!(bridges >= 1 && bridges <= m, "1 ≤ bridges ≤ m required");
    let mut g = Graph::empty(2 * m);
    for u in 0..m {
        for v in u + 1..m {
            g.add_edge(u, v);
            g.add_edge(m + u, m + v);
        }
    }
    for i in 0..bridges {
        g.add_edge(i, m + i);
    }
    g
}

/// A theta graph: two hub vertices joined by `paths` internally disjoint
/// paths, each with `inner` internal vertices.
///
/// # Panics
/// Panics for fewer than 2 paths or 1 inner vertex (keeps the graph
/// simple).
pub fn theta(paths: usize, inner: usize) -> Graph {
    assert!(paths >= 2 && inner >= 1);
    let n = 2 + paths * inner;
    let mut g = Graph::empty(n);
    let (s, t) = (0, 1);
    for p in 0..paths {
        let base = 2 + p * inner;
        g.add_edge(s, base);
        for k in 0..inner - 1 {
            g.add_edge(base + k, base + k + 1);
        }
        g.add_edge(base + inner - 1, t);
    }
    g
}

/// The Petersen graph.
pub fn petersen() -> Graph {
    let mut g = Graph::empty(10);
    for i in 0..5 {
        g.add_edge(i, (i + 1) % 5); // outer cycle
        g.add_edge(5 + i, 5 + (i + 2) % 5); // inner pentagram
        g.add_edge(i, 5 + i); // spokes
    }
    g
}

/// Erdős–Rényi `G(n, p)`.
pub fn gnp<R: Rng>(n: usize, p: f64, rng: &mut R) -> Graph {
    let mut g = Graph::empty(n);
    for u in 0..n {
        for v in u + 1..n {
            if rng.random_bool(p) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// A connected `G(n, p)`: resamples until connected (caller should keep
/// `p` comfortably above the connectivity threshold).
///
/// # Panics
/// Panics after 1000 failed attempts.
pub fn gnp_connected<R: Rng>(n: usize, p: f64, rng: &mut R) -> Graph {
    for _ in 0..1000 {
        let g = gnp(n, p, rng);
        if crate::connectivity::is_connected(&g) {
            return g;
        }
    }
    panic!("could not sample a connected G({n}, {p}) in 1000 attempts");
}

/// A random `d`-regular graph via the configuration model with rejection
/// (no self-loops or multi-edges). `n·d` must be even.
///
/// # Panics
/// Panics on parity violation or after 1000 failed attempts.
pub fn random_regular<R: Rng>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!((n * d).is_multiple_of(2), "n·d must be even");
    assert!(d < n, "degree must be below n");
    'attempt: for _ in 0..1000 {
        let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
        stubs.shuffle(rng);
        let mut g = Graph::empty(n);
        for pair in stubs.chunks(2) {
            let (u, v) = (pair[0], pair[1]);
            if u == v || g.has_edge(u, v) {
                continue 'attempt;
            }
            g.add_edge(u, v);
        }
        return g;
    }
    panic!("could not sample a simple {d}-regular graph on {n} vertices");
}

/// Largest vertex count [`parse`] will build. Descriptions exceeding it
/// are rejected before construction, so untrusted input (e.g. a network
/// request) cannot trigger an enormous allocation. The caps are small
/// enough that even `Graph`'s quadratic duplicate-edge checking stays
/// cheap — construction time is bounded, not just memory.
pub const MAX_PARSE_VERTICES: usize = 10_000;

/// Largest edge count [`parse`] will build; see [`MAX_PARSE_VERTICES`].
pub const MAX_PARSE_EDGES: usize = 100_000;

/// Rejects descriptions whose graph would exceed the parse size caps,
/// sizing the graph from the arguments alone. Descriptions with the
/// wrong arity pass through: the builder dispatch reports those.
fn check_parse_size(name: &str, args: &[usize], spec: &str) -> Result<(), String> {
    // u128 arithmetic: products of two usize arguments cannot overflow.
    let size: Option<(u128, u128)> = match (name, args) {
        ("complete", &[n]) => Some((n as u128, n as u128 * n.saturating_sub(1) as u128 / 2)),
        ("cycle" | "path" | "star", &[n]) => Some((n as u128, n as u128)),
        ("grid" | "torus", &[r, c]) => Some((r as u128 * c as u128, 2 * r as u128 * c as u128)),
        ("hypercube", &[d]) => {
            if d >= 64 {
                Some((u128::MAX, u128::MAX))
            } else {
                Some((1u128 << d, (d as u128) << d.saturating_sub(1)))
            }
        }
        ("complete_bipartite", &[a, b]) => Some((a as u128 + b as u128, a as u128 * b as u128)),
        ("barbell", &[m, bridges]) => Some((
            2 * m as u128,
            m as u128 * m.saturating_sub(1) as u128 + bridges as u128,
        )),
        ("theta", &[paths, inner]) => Some((
            2 + paths as u128 * inner as u128,
            paths as u128 * (inner as u128 + 1),
        )),
        _ => None,
    };
    match size {
        Some((vertices, edges))
            if vertices > MAX_PARSE_VERTICES as u128 || edges > MAX_PARSE_EDGES as u128 =>
        {
            Err(format!(
                "{spec} is too large: {vertices} vertices / {edges} edges exceed the \
                 parse caps of {MAX_PARSE_VERTICES} vertices / {MAX_PARSE_EDGES} edges"
            ))
        }
        _ => Ok(()),
    }
}

/// Builds a graph from a textual family description, e.g. `"torus(3,4)"`,
/// `"petersen"`, or the short forms `"k5"` / `"c6"` / `"q3"` the chaos
/// harness and experiment tables use.
///
/// Grammar: `name` or `name(arg, ...)` with unsigned decimal arguments.
/// Deterministic families only — the random generators need an RNG and a
/// seed, which a flat description string cannot carry faithfully.
///
/// | description | graph |
/// |-------------|-------|
/// | `complete(n)`, `k<n>` | `K_n` |
/// | `cycle(n)`, `c<n>` | `C_n` (n ≥ 3) |
/// | `path(n)` | `P_n` (n ≥ 2) |
/// | `star(n)` | `K_{1,n-1}` (n ≥ 2) |
/// | `grid(r,c)` | r×c grid |
/// | `torus(r,c)` | r×c torus (both ≥ 3) |
/// | `hypercube(d)`, `q<d>`, `h<d>` | `Q_d` |
/// | `complete_bipartite(a,b)` | `K_{a,b}` |
/// | `barbell(m,bridges)` | two `K_m` + bridges (1 ≤ bridges ≤ m) |
/// | `theta(paths,inner)` | theta graph (paths ≥ 2, inner ≥ 1) |
/// | `petersen` | the Petersen graph |
///
/// Errors (instead of panicking) on unknown names, wrong arity, and
/// out-of-range sizes, so a network service can reject bad requests.
/// Descriptions are also size-capped ([`MAX_PARSE_VERTICES`] /
/// [`MAX_PARSE_EDGES`]), computed from the arguments *before* any
/// allocation — a hostile `grid(100000,100000)` is rejected, not built.
pub fn parse(spec: &str) -> Result<Graph, String> {
    let spec = spec.trim();
    let (name, args) = match spec.find('(') {
        Some(open) => {
            let Some(inner) = spec[open + 1..].strip_suffix(')') else {
                return Err(format!("unbalanced parentheses in {spec:?}"));
            };
            let args = if inner.trim().is_empty() {
                Vec::new()
            } else {
                inner
                    .split(',')
                    .map(|a| {
                        a.trim()
                            .parse::<usize>()
                            .map_err(|_| format!("bad argument {:?} in {spec:?}", a.trim()))
                    })
                    .collect::<Result<Vec<usize>, String>>()?
            };
            (&spec[..open], args)
        }
        None => (spec, Vec::new()),
    };
    let name = name.trim().to_ascii_lowercase();

    // Short forms: a single family letter fused with its one argument.
    // Split at the first character, not the first byte: the name comes
    // off the network and may start with any character.
    let mut chars = name.chars();
    if let (true, Some(family)) = (args.is_empty(), chars.next()) {
        if let Ok(n) = chars.as_str().parse::<usize>() {
            match family {
                'k' => return parse(&format!("complete({n})")),
                'c' => return parse(&format!("cycle({n})")),
                'q' | 'h' => return parse(&format!("hypercube({n})")),
                _ => {}
            }
        }
    }

    check_parse_size(&name, &args, spec)?;

    let arity = |want: usize| -> Result<(), String> {
        if args.len() == want {
            Ok(())
        } else {
            Err(format!(
                "{name} takes {want} argument(s), got {}",
                args.len()
            ))
        }
    };
    let graph = match name.as_str() {
        "complete" => {
            arity(1)?;
            complete(args[0])
        }
        "cycle" => {
            arity(1)?;
            if args[0] < 3 {
                return Err("cycle needs n ≥ 3".to_string());
            }
            cycle(args[0])
        }
        "path" => {
            arity(1)?;
            if args[0] < 2 {
                return Err("path needs n ≥ 2".to_string());
            }
            path(args[0])
        }
        "star" => {
            arity(1)?;
            if args[0] < 2 {
                return Err("star needs n ≥ 2".to_string());
            }
            star(args[0])
        }
        "grid" => {
            arity(2)?;
            if args[0] < 1 || args[1] < 1 {
                return Err("grid needs ≥ 1 per dimension".to_string());
            }
            grid(args[0], args[1])
        }
        "torus" => {
            arity(2)?;
            if args[0] < 3 || args[1] < 3 {
                return Err("torus needs ≥ 3 per dimension".to_string());
            }
            torus(args[0], args[1])
        }
        "hypercube" => {
            arity(1)?;
            hypercube(args[0] as u32)
        }
        "complete_bipartite" => {
            arity(2)?;
            complete_bipartite(args[0], args[1])
        }
        "barbell" => {
            arity(2)?;
            if args[0] < 2 {
                return Err("barbell cliques need ≥ 2 vertices".to_string());
            }
            if args[1] < 1 || args[1] > args[0] {
                return Err("barbell needs 1 ≤ bridges ≤ m".to_string());
            }
            barbell(args[0], args[1])
        }
        "theta" => {
            arity(2)?;
            if args[0] < 2 || args[1] < 1 {
                return Err("theta needs paths ≥ 2 and inner ≥ 1".to_string());
            }
            theta(args[0], args[1])
        }
        "petersen" => {
            arity(0)?;
            petersen()
        }
        _ => return Err(format!("unknown graph family {name:?}")),
    };
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::{is_connected, min_degree};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parse_covers_every_deterministic_family() {
        for (spec, nodes, edges) in [
            ("complete(4)", 4, 6),
            ("k4", 4, 6),
            (" K4 ", 4, 6),
            ("cycle(5)", 5, 5),
            ("c5", 5, 5),
            ("path(3)", 3, 2),
            ("star(4)", 4, 3),
            ("grid(2,3)", 6, 7),
            ("torus(3, 3)", 9, 18),
            ("hypercube(3)", 8, 12),
            ("q3", 8, 12),
            ("h3", 8, 12),
            ("complete_bipartite(2,3)", 5, 6),
            ("barbell(3,2)", 6, 8),
            ("theta(2,1)", 4, 4),
            ("petersen", 10, 15),
            ("petersen()", 10, 15),
        ] {
            let g = parse(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(g.vertex_count(), nodes, "{spec}");
            assert_eq!(g.edge_count(), edges, "{spec}");
        }
    }

    #[test]
    fn parse_rejects_malformed_descriptions() {
        for bad in [
            "mobius(4)",
            "cycle(2)",
            "cycle(3",
            "cycle(x)",
            "torus(2,3)",
            "grid(3)",
            "barbell(3,4)",
            "petersen(1)",
            "hypercube(64)",
            "",
            // A non-ASCII first character must not be split mid-byte.
            "ж5",
            "éx",
            "ж",
            "kж",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use proptest::TestRng;

        /// Descriptions spliced from family names, digits, separators and
        /// multi-byte characters, so both the short form and the
        /// parenthesised form see every kind of first character.
        struct Descriptions;

        impl Strategy for Descriptions {
            type Value = String;
            fn generate(&self, rng: &mut TestRng) -> String {
                const PIECES: &[&str] = &[
                    "k",
                    "c",
                    "q",
                    "h",
                    "K",
                    "complete",
                    "cycle",
                    "path",
                    "star",
                    "grid",
                    "torus",
                    "hypercube",
                    "petersen",
                    "barbell",
                    "theta",
                    "complete_bipartite",
                    "0",
                    "1",
                    "3",
                    "5",
                    "12",
                    "99999999999999999999",
                    "(",
                    ")",
                    ",",
                    " ",
                    "-",
                    "+",
                    "ж",
                    "é",
                    "€",
                    "😀",
                    "\u{0}",
                    "İ",
                    "ſ",
                ];
                (0..rng.below(7))
                    .map(|_| PIECES[rng.below(PIECES.len() as u64) as usize])
                    .collect()
            }
        }

        /// Arbitrary characters, ASCII or not.
        struct AnyText;

        impl Strategy for AnyText {
            type Value = String;
            fn generate(&self, rng: &mut TestRng) -> String {
                (0..rng.below(6))
                    .filter_map(|_| match rng.below(3) {
                        0 => char::from_u32(rng.below(0x80) as u32),
                        1 => char::from_u32(rng.below(0x800) as u32),
                        _ => char::from_u32(rng.below(0x11_0000) as u32),
                    })
                    .collect()
            }
        }

        /// `parse` answers every description with a graph or an error
        /// message; it never panics.
        fn parses_or_errors(spec: &str) {
            if let Err(message) = parse(spec) {
                prop_assert!(!message.is_empty(), "{spec:?}");
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            #[test]
            fn spliced_descriptions_parse_or_error(spec in Descriptions) {
                parses_or_errors(&spec);
            }

            #[test]
            fn arbitrary_text_parses_or_errors(spec in AnyText) {
                parses_or_errors(&spec);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(200_000))]

            #[test]
            #[ignore = "long sweep; run with -- --ignored"]
            fn sweep_spliced_descriptions(spec in Descriptions) {
                parses_or_errors(&spec);
            }

            #[test]
            #[ignore = "long sweep; run with -- --ignored"]
            fn sweep_arbitrary_text(spec in AnyText) {
                parses_or_errors(&spec);
            }
        }
    }

    #[test]
    fn parse_rejects_oversized_descriptions_without_building() {
        // Each of these would allocate far past the caps if built; the
        // error must come back immediately (and mention the caps), not
        // after an attempted 10^10-vertex construction.
        for big in [
            "grid(100000,100000)",
            "complete(100000)",
            "torus(1000000,1000000)",
            "complete_bipartite(100000,100000)",
            "barbell(50000,1)",
            "theta(100000,100000)",
            "hypercube(40)",
            "q40",
            "k18446744073709551615",
            "path(18446744073709551615)",
        ] {
            let err = parse(big).expect_err(big);
            assert!(err.contains("too large"), "{big}: {err}");
        }
        // Comfortably in-cap members still build.
        assert!(parse("hypercube(10)").is_ok());
        assert!(parse("grid(70,70)").is_ok());
    }

    #[test]
    fn complete_counts() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(min_degree(&g), 5);
    }

    #[test]
    fn cycle_counts() {
        let g = cycle(5);
        assert_eq!(g.edge_count(), 5);
        assert!((0..5).all(|v| g.degree(v) == 2));
    }

    #[test]
    fn path_and_star_shapes() {
        assert_eq!(path(4).edge_count(), 3);
        let s = star(5);
        assert_eq!(s.degree(0), 4);
        assert!((1..5).all(|v| s.degree(v) == 1));
    }

    #[test]
    fn grid_counts() {
        let g = grid(3, 4);
        assert_eq!(g.vertex_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert!(is_connected(&g));
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus(3, 5);
        assert!((0..15).all(|v| g.degree(v) == 4));
    }

    #[test]
    fn hypercube_is_d_regular() {
        let g = hypercube(4);
        assert_eq!(g.vertex_count(), 16);
        assert_eq!(g.edge_count(), 32);
        assert!((0..16).all(|v| g.degree(v) == 4));
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(4, 2);
        assert_eq!(g.vertex_count(), 8);
        assert_eq!(g.edge_count(), 6 + 6 + 2);
        assert!(is_connected(&g));
    }

    #[test]
    #[should_panic(expected = "bridges ≤ m")]
    fn barbell_too_many_bridges() {
        let _ = barbell(3, 4);
    }

    #[test]
    fn theta_shape() {
        let g = theta(3, 2);
        assert_eq!(g.vertex_count(), 8);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 3);
        assert!(is_connected(&g));
    }

    #[test]
    fn petersen_is_cubic() {
        let g = petersen();
        assert_eq!(g.edge_count(), 15);
        assert!((0..10).all(|v| g.degree(v) == 3));
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(gnp(6, 0.0, &mut rng).edge_count(), 0);
        assert_eq!(gnp(6, 1.0, &mut rng).edge_count(), 15);
    }

    #[test]
    fn gnp_connected_is_connected() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gnp_connected(12, 0.4, &mut rng);
        assert!(is_connected(&g));
    }

    #[test]
    fn random_regular_is_regular() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_regular(10, 3, &mut rng);
        assert!((0..10).all(|v| g.degree(v) == 3));
    }

    #[test]
    #[should_panic(expected = "even")]
    fn random_regular_parity_check() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = random_regular(5, 3, &mut rng);
    }
}
