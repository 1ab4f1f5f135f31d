//! Workspace hot-path lint: a text/structural scan enforcing invariants
//! rustc and clippy cannot express, because they are repo policy rather
//! than language rules.
//!
//! Three rules (the waiver grammar is documented in DESIGN.md §12):
//!
//! * **hot-path alloc** — in files carrying the `hot-path(alloc)` marker
//!   comment, any allocating call (`Vec::new`, `vec!`, `.collect`,
//!   `.clone`, `.to_vec`, `.to_owned`, `with_capacity`, `Box::new`,
//!   `format!`, `String::new`) must carry an `allow-alloc(reason)` waiver
//!   on the same or preceding line. The mining executor's per-embedding
//!   loop and the set-op kernels are scratch-reusing by design; an
//!   unwaived allocation there is a performance regression the type
//!   system will happily accept.
//! * **hot-path index** — in files carrying the `hot-path(index)` marker,
//!   any `x[...]` indexing expression needs an `allow-index(reason)`
//!   waiver: kernel inner loops must either justify why the index is in
//!   bounds or use iterators/`get`.
//! * **§11 audit** — in every scanned file, an
//!   `allow(clippy::unwrap_used)` / `allow(clippy::expect_used)`
//!   attribute must carry a `§11` justification comment within the two
//!   preceding lines (DESIGN.md §11 is the error-handling policy that
//!   says which layers may panic and why).
//!
//! Concurrency-discipline rules (DESIGN.md §16):
//!
//! * **atomic ordering tag** — every *atomic* `Ordering::` use
//!   (`Relaxed`/`Acquire`/`Release`/`AcqRel`/`SeqCst`; the `cmp::Ordering`
//!   variants are disjoint and never match) needs an
//!   `// ord: <names>(<reason>)` tag on the same or one of the three
//!   preceding lines, where `<names>` is the `+`-joined lowercase list of
//!   every ordering the line uses. The tag is the code-review contract:
//!   the author states *why* that strength suffices.
//! * **relaxed allowlist** — `Ordering::Relaxed` may appear only in the
//!   module allowlist ([`RELAXED_ALLOWLIST`]): counters, latch-only
//!   flags, and gauges whose protocols the model checker exhausts. A new
//!   Relaxed site anywhere else is an error even with a tag — widen the
//!   allowlist consciously, in this file, under review.
//! * **lock tag + static lock order** — in files carrying a
//!   `// lint: lock-order(a < b < c)` marker, every `.lock()` call must
//!   resolve to a `// lock: <name>` tag (same statement, or the comment
//!   block immediately above it) naming a declared lock. While a tagged
//!   guard is live (tracked by brace depth), acquiring a lock of *lower*
//!   rank — directly or by calling a function tagged
//!   `// lock: acquires(<name>)` — is a lock-order violation.
//! * **unsafe island** — `unsafe` outside the audited island files
//!   ([`UNSAFE_ISLANDS`]) is an error; inside an island every unsafe site
//!   must have a `SAFETY` comment (or `# Safety` doc section) within the
//!   eight preceding lines.
//!
//! Test code is out of scope: `tests/`/`benches/` directories are not
//! walked, and `#[cfg(test)]` modules inside scanned files are skipped by
//! brace tracking.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Which lint rule a violation is against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintRule {
    /// Unwaived allocation in a `hot-path(alloc)` file.
    HotPathAlloc,
    /// Unwaived slice indexing in a `hot-path(index)` file.
    HotPathIndex,
    /// `allow(clippy::unwrap_used/expect_used)` without a §11 comment.
    AllowNeedsJustification,
    /// Atomic `Ordering::` use without a matching `ord:` tag.
    AtomicOrderingNeedsTag,
    /// `Ordering::Relaxed` in a file outside [`RELAXED_ALLOWLIST`].
    RelaxedOutsideAllowlist,
    /// `.lock()` in a lock-order-marked file without a `lock:` tag.
    LockNeedsTag,
    /// Lock acquired out of the declared `lock-order(...)` ranking.
    LockOrderViolation,
    /// `unsafe` outside the audited [`UNSAFE_ISLANDS`].
    UnsafeOutsideIsland,
    /// `unsafe` inside an island without a nearby `SAFETY` comment.
    UnsafeNeedsSafetyComment,
}

impl LintRule {
    /// Stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            LintRule::HotPathAlloc => "hot-path-alloc",
            LintRule::HotPathIndex => "hot-path-index",
            LintRule::AllowNeedsJustification => "allow-needs-justification",
            LintRule::AtomicOrderingNeedsTag => "atomic-ordering-needs-tag",
            LintRule::RelaxedOutsideAllowlist => "relaxed-outside-allowlist",
            LintRule::LockNeedsTag => "lock-needs-tag",
            LintRule::LockOrderViolation => "lock-order-violation",
            LintRule::UnsafeOutsideIsland => "unsafe-outside-island",
            LintRule::UnsafeNeedsSafetyComment => "unsafe-needs-safety-comment",
        }
    }
}

/// One lint finding: file, 1-based line, rule, and the offending text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintViolation {
    /// Path of the offending file, as given to the linter.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule violated.
    pub rule: LintRule,
    /// The offending line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for LintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.excerpt
        )
    }
}

/// Result of a workspace scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintSummary {
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
    /// Every violation, in path order.
    pub violations: Vec<LintViolation>,
}

const ALLOC_PATTERNS: [&str; 10] = [
    "Vec::new(",
    "vec!",
    ".collect(",
    ".clone(",
    ".to_vec(",
    ".to_owned(",
    "with_capacity(",
    "Box::new(",
    "format!(",
    "String::new(",
];

/// Atomic `Ordering` variants and the lowercase name an `ord:` tag must
/// use for them. `cmp::Ordering`'s `Less`/`Equal`/`Greater` are disjoint
/// from this list, so comparator code never trips the atomic rules.
const ATOMIC_ORDERINGS: [(&str, &str); 5] = [
    ("Ordering::Relaxed", "relaxed"),
    ("Ordering::Acquire", "acquire"),
    ("Ordering::Release", "release"),
    ("Ordering::AcqRel", "acqrel"),
    ("Ordering::SeqCst", "seqcst"),
];

/// Files (path suffixes) allowed to use `Ordering::Relaxed`: monotonic
/// stats counters, latch-only flags, and gauge arithmetic whose protocols
/// the `model-check` harnesses exhaust. Everything else must use at least
/// acquire/release — or widen this list consciously, under review.
pub const RELAXED_ALLOWLIST: &[&str] = &[
    "crates/mining/src/cancel.rs",
    "crates/mining/src/chaos.rs",
    "crates/mining/src/gauge.rs",
    "crates/mining/src/parallel.rs",
    "crates/server/src/daemon.rs",
    "crates/server/src/model.rs",
    "crates/server/src/sched.rs",
    "crates/server/src/session.rs",
    "crates/bench/src/experiments/service_latency.rs",
    "crates/bench/src/experiments/soak_chaos.rs",
];

/// The only files (path suffixes) permitted to contain `unsafe`: the SIMD
/// kernel island and the libc signal-handler island, both audited and both
/// behind safe wrappers.
pub const UNSAFE_ISLANDS: &[&str] = &["crates/setops/src/simd.rs", "crates/server/src/signals.rs"];

fn marker(kind: &str) -> String {
    format!("// lint: hot-path({kind})")
}

fn waiver_pattern(kind: &str) -> String {
    format!("lint: allow-{kind}(")
}

/// Lints one file's source text. `file` labels violations and selects the
/// path-keyed rules (relaxed allowlist, unsafe islands).
pub fn lint_source(file: &str, source: &str) -> Vec<LintViolation> {
    let alloc_hot = source.contains(&marker("alloc"));
    let index_hot = source.contains(&marker("index"));
    let lock_order = parse_lock_order(source);
    let lines: Vec<&str> = source.lines().collect();
    let acquires = match &lock_order {
        Some(order) => collect_acquires_fns(&lines, order),
        None => Vec::new(),
    };
    let in_island = UNSAFE_ISLANDS.iter().any(|s| path_matches(file, s));
    let relaxed_allowed = RELAXED_ALLOWLIST.iter().any(|s| path_matches(file, s));
    let mut out = Vec::new();

    let mut pending_cfg_test = false;
    let mut test_depth: i64 = 0; // > 0 while inside a #[cfg(test)] module
    let mut depth: i64 = 0; // overall brace depth, for guard-scope tracking
    let mut held: Vec<(usize, i64)> = Vec::new(); // (lock rank, depth acquired at)
    for (i, &raw) in lines.iter().enumerate() {
        let trimmed = raw.trim_start();
        if trimmed.starts_with("///") || trimmed.starts_with("//!") {
            continue;
        }
        let stripped = strip_strings_and_comments(raw);
        let delta = brace_delta(&stripped);
        depth += delta;
        held.retain(|&(_, d)| d <= depth);

        if test_depth > 0 {
            test_depth += delta;
            continue;
        }
        if pending_cfg_test {
            if stripped.contains("mod ") {
                // `mod tests {` opens the module; a `mod tests;` item
                // (separate file, excluded by the walker) keeps depth 0.
                if delta > 0 {
                    test_depth = delta;
                }
                pending_cfg_test = false;
                continue;
            }
            if !trimmed.starts_with('#') && !trimmed.is_empty() {
                pending_cfg_test = false;
            }
        }
        if stripped.contains("cfg(test") {
            pending_cfg_test = true;
            continue;
        }

        let violation = |rule: LintRule| LintViolation {
            file: file.to_string(),
            line: i + 1,
            rule,
            excerpt: trimmed.trim_end().to_string(),
        };

        if alloc_hot
            && ALLOC_PATTERNS.iter().any(|p| stripped.contains(p))
            && !waived(&lines, i, "alloc")
        {
            out.push(violation(LintRule::HotPathAlloc));
        }
        if index_hot && has_index_site(&stripped) && !waived(&lines, i, "index") {
            out.push(violation(LintRule::HotPathIndex));
        }
        if (stripped.contains("clippy::unwrap_used") || stripped.contains("clippy::expect_used"))
            && stripped.contains("allow")
            && !(i.saturating_sub(2)..=i).any(|j| lines[j].contains("§11"))
        {
            out.push(violation(LintRule::AllowNeedsJustification));
        }

        // Atomic-ordering discipline: every atomic Ordering:: use needs an
        // `ord:` tag naming each ordering the line uses.
        let used: Vec<&str> = ATOMIC_ORDERINGS
            .iter()
            .filter(|(pat, _)| stripped.contains(pat))
            .map(|&(_, name)| name)
            .collect();
        if !used.is_empty() {
            let tagged = (i.saturating_sub(3)..=i)
                .rev()
                .find_map(|j| ord_tag_names(lines[j]))
                .is_some_and(|names| {
                    used.iter()
                        .all(|n| names.split('+').any(|t| t.trim() == *n))
                });
            if !tagged {
                out.push(violation(LintRule::AtomicOrderingNeedsTag));
            }
            if stripped.contains("Ordering::Relaxed") && !relaxed_allowed {
                out.push(violation(LintRule::RelaxedOutsideAllowlist));
            }
        }

        // Lock discipline, active only in lock-order-marked files.
        if let Some(order) = &lock_order {
            if stripped.contains(".lock()") {
                match find_lock_tag(&lines, i).and_then(|n| order.iter().position(|o| *o == n)) {
                    None => out.push(violation(LintRule::LockNeedsTag)),
                    Some(rank) => {
                        if held.iter().any(|&(h, _)| h > rank) {
                            out.push(violation(LintRule::LockOrderViolation));
                        }
                        held.push((rank, depth));
                    }
                }
            }
            for (fn_name, fn_rank) in &acquires {
                if !stripped.contains("fn ")
                    && stripped.contains(&format!("{fn_name}("))
                    && held.iter().any(|&(h, _)| h > *fn_rank)
                {
                    out.push(violation(LintRule::LockOrderViolation));
                }
            }
        }

        // Unsafe islands.
        if has_unsafe_keyword(&stripped) {
            if !in_island {
                out.push(violation(LintRule::UnsafeOutsideIsland));
            } else if !(i.saturating_sub(8)..=i)
                .any(|j| lines[j].contains("SAFETY") || lines[j].contains("# Safety"))
            {
                out.push(violation(LintRule::UnsafeNeedsSafetyComment));
            }
        }
    }
    out
}

/// Path-suffix match with `\` normalized to `/`.
fn path_matches(file: &str, suffix: &str) -> bool {
    file.replace('\\', "/").ends_with(suffix)
}

/// Extracts the `<names>` part of an `// ord: <names>(<reason>)` tag with a
/// nonempty reason, if `line` carries one.
fn ord_tag_names(line: &str) -> Option<&str> {
    let comment = &line[line.find("//")?..];
    let after = &comment[comment.find("ord: ")? + 5..];
    let open = after.find('(')?;
    let names = after[..open].trim();
    let close = after[open + 1..].find(')')?;
    (!names.is_empty() && close > 0).then_some(names)
}

/// Extracts the lock name of an `// lock: <name>` acquisition tag. The
/// `lock-order(...)` marker and `lock: acquires(...)` fn tags don't count.
fn lock_tag_name(line: &str) -> Option<&str> {
    let comment = &line[line.find("//")?..];
    if comment.contains("lock-order(") {
        return None;
    }
    let name = comment[comment.find("lock: ")? + 6..]
        .split_whitespace()
        .next()?;
    (!name.contains('(')).then_some(name)
}

/// The declared lock ranking from a `// lint: lock-order(a < b < c)`
/// marker, lowest rank first.
fn parse_lock_order(source: &str) -> Option<Vec<String>> {
    let at = source.find("// lint: lock-order(")?;
    let inner = &source[at + "// lint: lock-order(".len()..];
    let inner = &inner[..inner.find(')')?];
    Some(inner.split('<').map(|n| n.trim().to_string()).collect())
}

/// Functions tagged `// lock: acquires(<name>)`, mapped to the rank of the
/// lock they take internally (per the declared `order`). The tag must sit
/// on one of the two lines above the `fn` item.
fn collect_acquires_fns(lines: &[&str], order: &[String]) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(comment) = line.find("//").map(|c| &line[c..]) else {
            continue;
        };
        let Some(p) = comment.find("lock: acquires(") else {
            continue;
        };
        let after = &comment[p + "lock: acquires(".len()..];
        let Some(close) = after.find(')') else {
            continue;
        };
        let Some(rank) = order.iter().position(|o| o == after[..close].trim()) else {
            continue;
        };
        for next in lines.iter().skip(i + 1).take(2) {
            if let Some(fp) = next.find("fn ") {
                let fn_name: String = next[fp + 3..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !fn_name.is_empty() {
                    out.push((fn_name, rank));
                }
                break;
            }
        }
    }
    out
}

/// Resolves the `lock:` tag governing the `.lock()` call on line `i`: the
/// same line, an earlier line of the same multi-line statement, or the
/// contiguous comment block immediately above the statement.
fn find_lock_tag(lines: &[&str], i: usize) -> Option<String> {
    if let Some(n) = lock_tag_name(lines[i]) {
        return Some(n.to_string());
    }
    // Walk up to the statement start: stop at a blank/comment-only line or
    // one ending a previous statement or opening a block.
    let mut j = i;
    for _ in 0..12 {
        if j == 0 {
            break;
        }
        let prev = strip_strings_and_comments(lines[j - 1]);
        let t = prev.trim();
        if t.is_empty() || t.ends_with(';') || t.ends_with('{') || t.ends_with('}') {
            break;
        }
        j -= 1;
        if let Some(n) = lock_tag_name(lines[j]) {
            return Some(n.to_string());
        }
    }
    // Contiguous comment block above the statement start.
    while j > 0 && lines[j - 1].trim_start().starts_with("//") {
        j -= 1;
        if let Some(n) = lock_tag_name(lines[j]) {
            return Some(n.to_string());
        }
    }
    None
}

/// Whether the stripped line contains the `unsafe` keyword (word-bounded,
/// so `unsafe_code` attributes don't match).
fn has_unsafe_keyword(stripped: &str) -> bool {
    let bytes = stripped.as_bytes();
    let mut from = 0;
    while let Some(p) = stripped[from..].find("unsafe") {
        let start = from + p;
        let end = start + "unsafe".len();
        let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
        let pre_ok = start == 0 || !ident(bytes[start - 1]);
        let post_ok = end >= bytes.len() || !ident(bytes[end]);
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Whether line `i` (or the line above) waives rule `kind` with a
/// nonempty reason.
fn waived(lines: &[&str], i: usize, kind: &str) -> bool {
    let pat = waiver_pattern(kind);
    let check = |l: &str| {
        l.find(&pat).is_some_and(|p| {
            let rest = &l[p + pat.len()..];
            rest.find(')').is_some_and(|close| close > 0)
        })
    };
    check(lines[i]) || (i > 0 && check(lines[i - 1]))
}

/// Drops string-literal contents and everything after a `//` comment
/// opener, so patterns never match inside strings or prose.
fn strip_strings_and_comments(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_string = false;
    while let Some(c) = chars.next() {
        if in_string {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(' ');
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

/// Net `{`/`}` balance of an already-stripped line.
fn brace_delta(stripped: &str) -> i64 {
    stripped.chars().fold(0, |acc, c| match c {
        '{' => acc + 1,
        '}' => acc - 1,
        _ => acc,
    })
}

/// Does the stripped line contain an indexing expression `x[...]`?
/// A `[` counts when the previous non-space token is an identifier, a
/// closing `)`/`]`, or `?` — which excludes array literals `&[..]`,
/// attributes `#[..]`, macro brackets `vec![..]`, and slice *types*
/// `&mut [T]`.
fn has_index_site(stripped: &str) -> bool {
    let bytes = stripped.as_bytes();
    if stripped.trim_start().starts_with('#') {
        return false;
    }
    for (pos, &c) in bytes.iter().enumerate() {
        if c != b'[' {
            continue;
        }
        let Some(prev_at) = bytes[..pos].iter().rposition(|&p| p != b' ') else {
            continue;
        };
        let prev = bytes[prev_at];
        if prev == b')' || prev == b']' || prev == b'?' {
            return true;
        }
        if prev.is_ascii_alphanumeric() || prev == b'_' {
            // Extract the word; type-position keywords are not receivers.
            let start = bytes[..=prev_at]
                .iter()
                .rposition(|&p| !(p.is_ascii_alphanumeric() || p == b'_'))
                .map_or(0, |s| s + 1);
            let word = &stripped[start..=prev_at];
            // A lifetime (`&'a [u32]`) is a type position, not a receiver.
            let is_lifetime = start > 0 && bytes[start - 1] == b'\'';
            if !is_lifetime && !matches!(word, "mut" | "dyn" | "impl" | "in" | "as") {
                return true;
            }
        }
    }
    false
}

/// Recursively collects `.rs` files under `root/crates` and `root/src`,
/// skipping `target`, `vendor`, `tests`, and `benches` directories, and
/// lints each one. Files that are not valid UTF-8 are skipped.
pub fn lint_workspace(root: &Path) -> io::Result<LintSummary> {
    let mut files = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut violations = Vec::new();
    let mut files_scanned = 0usize;
    for path in &files {
        let Ok(source) = std::fs::read_to_string(path) else {
            continue;
        };
        files_scanned += 1;
        violations.extend(lint_source(&path.to_string_lossy(), &source));
    }
    Ok(LintSummary {
        files_scanned,
        violations,
    })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !matches!(name.as_ref(), "target" | "vendor" | "tests" | "benches") {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot(kind: &str, body: &str) -> String {
        format!("{}\n{body}\n", marker(kind))
    }

    #[test]
    fn unmarked_files_allow_anything() {
        let src = "fn f() -> Vec<u32> { let v = Vec::new(); v }\n";
        assert!(lint_source("a.rs", src).is_empty());
    }

    #[test]
    fn marked_file_flags_allocation() {
        let src = hot("alloc", "fn f() { let v: Vec<u32> = Vec::new(); }");
        let vs = lint_source("a.rs", &src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, LintRule::HotPathAlloc);
        assert_eq!(vs[0].line, 2);
    }

    #[test]
    fn waiver_on_same_or_previous_line_suppresses() {
        let same = hot(
            "alloc",
            &format!("let v = Vec::new(); {}one-time)", waiver_pattern("alloc")),
        );
        assert!(lint_source("a.rs", &same).is_empty());
        let prev = hot(
            "alloc",
            &format!(
                "// {}scratch)\nlet v = Vec::new();",
                waiver_pattern("alloc")
            ),
        );
        assert!(lint_source("a.rs", &prev).is_empty());
        // An empty reason does not count as a waiver.
        let empty = hot(
            "alloc",
            &format!("let v = Vec::new(); {})", waiver_pattern("alloc")),
        );
        assert_eq!(lint_source("a.rs", &empty).len(), 1);
    }

    #[test]
    fn index_rule_flags_real_indexing_only() {
        let src = hot(
            "index",
            "fn f(a: &[u32], i: usize) -> u32 { a[i] }\n\
             fn g() -> &'static [u32] { &[1, 2] }\n\
             fn h(out: &mut [u32]) {}\n\
             #[derive(Debug)]\n\
             struct S;",
        );
        let vs = lint_source("a.rs", &src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].line, 2);
        assert_eq!(vs[0].rule, LintRule::HotPathIndex);
    }

    #[test]
    fn strings_and_comments_do_not_match() {
        let src = hot("alloc", "let s = \"Vec::new()\"; // and .collect( in prose");
        assert!(lint_source("a.rs", &src).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let src = hot(
            "alloc",
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let v: Vec<u32> = Vec::new(); }\n}",
        );
        assert!(lint_source("a.rs", &src).is_empty());
    }

    #[test]
    fn clippy_allow_requires_section_11_comment() {
        let bad = "#[allow(clippy::expect_used)]\nfn f() {}\n";
        let vs = lint_source("a.rs", bad);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, LintRule::AllowNeedsJustification);
        let good = "// §11: invariant guaranteed by the compiler.\n#[allow(clippy::expect_used)]\nfn f() {}\n";
        assert!(lint_source("a.rs", good).is_empty());
    }

    #[test]
    fn doc_comments_are_ignored() {
        let src = hot(
            "alloc",
            "/// Call `.collect()` to gather results.\nfn f() {}",
        );
        assert!(lint_source("a.rs", &src).is_empty());
    }

    // --- concurrency-discipline rules ---
    //
    // Fixtures are built from per-line string arrays: the linter's string
    // stripper is line-based, so a fixture written as one multi-line
    // literal would leak its braces into this very file's scan.

    /// A file path inside the relaxed allowlist, for fixtures that should
    /// only exercise the tag rule.
    const ALLOWED: &str = "crates/mining/src/gauge.rs";

    fn fixture(lines: &[&str]) -> String {
        lines.join("\n")
    }

    #[test]
    fn atomic_ordering_without_tag_is_flagged() {
        let src = fixture(&["fn f(a: &AtomicU64) { a.load(Ordering::Acquire); }"]);
        let vs = lint_source("a.rs", &src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, LintRule::AtomicOrderingNeedsTag);
    }

    #[test]
    fn ord_tag_must_name_every_ordering_on_the_line() {
        let good = fixture(&[
            "// ord: release(publishes the plan)",
            "fn f(a: &AtomicBool) { a.store(true, Ordering::Release); }",
        ]);
        assert!(lint_source("a.rs", &good).is_empty());
        let wrong_name = fixture(&[
            "// ord: relaxed(stale tag)",
            "fn f(a: &AtomicBool) { a.store(true, Ordering::Release); }",
        ]);
        let vs = lint_source("a.rs", &wrong_name);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, LintRule::AtomicOrderingNeedsTag);
        let both = fixture(&[
            "// ord: relaxed+relaxed(saturating decrement)",
            "fn f(a: &AtomicU64) { a.fetch_update(Ordering::Relaxed, Ordering::Relaxed, Some); }",
        ]);
        assert!(lint_source(ALLOWED, &both).is_empty());
        // An empty reason does not count as a tag.
        let empty = fixture(&[
            "// ord: release()",
            "fn f(a: &AtomicBool) { a.store(true, Ordering::Release); }",
        ]);
        assert_eq!(lint_source("a.rs", &empty).len(), 1);
    }

    #[test]
    fn cmp_ordering_is_not_mistaken_for_atomic_ordering() {
        // merge.rs / simd.rs shape: comparator code, no atomics anywhere.
        let src = fixture(&[
            "fn f(a: u32, b: u32) -> Ordering {",
            "    match a.cmp(&b) {",
            "        Ordering::Less => Ordering::Less,",
            "        Ordering::Equal => Ordering::Equal,",
            "        Ordering::Greater => Ordering::Greater,",
            "    }",
            "}",
        ]);
        assert!(lint_source("crates/setops/src/merge.rs", &src).is_empty());
    }

    #[test]
    fn relaxed_outside_allowlist_is_flagged_even_with_tag() {
        let src = fixture(&[
            "// ord: relaxed(but this file may not use relaxed at all)",
            "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }",
        ]);
        let vs = lint_source("crates/graph/src/csr.rs", &src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, LintRule::RelaxedOutsideAllowlist);
        assert!(lint_source(ALLOWED, &src).is_empty());
    }

    #[test]
    fn lock_in_marked_file_needs_a_declared_tag() {
        let untagged = fixture(&[
            "// lint: lock-order(queue < workers)",
            "fn f(m: &Mutex<u32>) { let g = m.lock(); }",
        ]);
        let vs = lint_source("a.rs", &untagged);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, LintRule::LockNeedsTag);
        // A tag naming an undeclared lock does not count.
        let undeclared = fixture(&[
            "// lint: lock-order(queue < workers)",
            "fn f(m: &Mutex<u32>) {",
            "    // lock: cache",
            "    let g = m.lock();",
            "}",
        ]);
        let vs = lint_source("a.rs", &undeclared);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, LintRule::LockNeedsTag);
        // Unmarked files are exempt: the rule is opt-in per file.
        let unmarked = fixture(&["fn f(m: &Mutex<u32>) { let g = m.lock(); }"]);
        assert!(lint_source("a.rs", &unmarked).is_empty());
    }

    #[test]
    fn lock_tag_resolves_across_multiline_chains() {
        let src = fixture(&[
            "// lint: lock-order(queue < workers)",
            "fn f(s: &S) {",
            "    // lock: queue",
            "    let g = s",
            "        .queue",
            "        .lock()",
            "        .unwrap_or_else(PoisonError::into_inner);",
            "}",
        ]);
        assert!(lint_source("a.rs", &src).is_empty());
    }

    #[test]
    fn out_of_order_acquisition_is_flagged() {
        let src = fixture(&[
            "// lint: lock-order(queue < workers)",
            "fn f(s: &S) {",
            "    // lock: workers",
            "    let w = s.workers.lock();",
            "    // lock: queue",
            "    let q = s.queue.lock();",
            "}",
        ]);
        let vs = lint_source("a.rs", &src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, LintRule::LockOrderViolation);
        // The declared order is fine, and so is release by scope end.
        let ordered = fixture(&[
            "// lint: lock-order(queue < workers)",
            "fn f(s: &S) {",
            "    {",
            "        // lock: queue",
            "        let q = s.queue.lock();",
            "    }",
            "    // lock: workers",
            "    let w = s.workers.lock();",
            "    // lock: workers",
            "    let w2 = s.other_workers.lock();",
            "}",
        ]);
        assert!(lint_source("a.rs", &ordered).is_empty());
    }

    #[test]
    fn acquires_tagged_fn_called_under_higher_lock_is_flagged() {
        let src = fixture(&[
            "// lint: lock-order(queue < workers)",
            "// lock: acquires(queue)",
            "fn requeue(s: &S) {",
            "    // lock: queue",
            "    s.queue.lock().push(1);",
            "}",
            "fn f(s: &S) {",
            "    // lock: workers",
            "    let w = s.workers.lock();",
            "    requeue(s);",
            "}",
        ]);
        let vs = lint_source("a.rs", &src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, LintRule::LockOrderViolation);
    }

    #[test]
    fn unsafe_outside_island_is_flagged() {
        let src = fixture(&["fn f(p: *const u8) -> u8 { unsafe { *p } }"]);
        let vs = lint_source("crates/graph/src/csr.rs", &src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, LintRule::UnsafeOutsideIsland);
        // The forbid/deny attribute's `unsafe_code` token never matches.
        let attr = fixture(&["#![forbid(unsafe_code)]", "fn f() {}"]);
        assert!(lint_source("a.rs", &attr).is_empty());
    }

    #[test]
    fn island_unsafe_needs_a_safety_comment() {
        let island = "crates/setops/src/simd.rs";
        let bare = fixture(&["fn f(p: *const u8) -> u8 { unsafe { *p } }"]);
        let vs = lint_source(island, &bare);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, LintRule::UnsafeNeedsSafetyComment);
        let justified = fixture(&[
            "// SAFETY: caller guarantees p is valid for reads.",
            "fn f(p: *const u8) -> u8 { unsafe { *p } }",
        ]);
        assert!(lint_source(island, &justified).is_empty());
    }
}
