//! The Gables spec-file format and its parser.
//!
//! A small INI-style format describing a SoC, a workload, and optional
//! extensions — the file-based analog of the paper's interactive tool
//! inputs. No external parser crates are among the approved offline
//! dependencies, so the format is parsed in-tree.
//!
//! ```text
//! # Figure 6b of the paper
//! [soc]
//! ppeak_gops = 40
//! bpeak_gbps = 10
//!
//! [ip.CPU]                # first [ip.*] section is IP[0], the CPU
//! bandwidth_gbps = 6
//!
//! [ip.GPU]
//! acceleration = 5
//! bandwidth_gbps = 15
//!
//! [workload]
//! fractions   = 0.25, 0.75   # one per IP, in section order
//! intensities = 8, 0.1       # ops/byte
//!
//! [sram]                     # optional Section V-A extension
//! miss_ratios = 1.0, 0.1
//! ```

use std::collections::HashSet;
use std::fmt;

use gables_model::ext::sram::MemorySideSram;
use gables_model::units::{BytesPerSec, MissRatio, OpsPerByte, OpsPerSec, WorkFraction};
use gables_model::{ErrorKind, GablesError, SocSpec, WorkAssignment, Workload};

/// The machine-readable kind reported for input errors that have no
/// model-level [`ErrorKind`] — malformed INI/JSON, missing sections or
/// keys, unparseable numbers. Together with [`ErrorKind::code`] values
/// this forms the closed `kind` vocabulary of the `/v1` error envelope.
pub const SPEC_PARSE_KIND: &str = "spec_parse";

/// A parse or build error with the offending line number when known.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    /// 1-based line number, when attributable.
    pub line: Option<usize>,
    /// What went wrong.
    pub message: String,
    /// The model-level error category, when the failure came from (or
    /// maps onto) a [`GablesError`]. `None` means a transport/parse
    /// problem, reported as [`SPEC_PARSE_KIND`].
    pub kind: Option<ErrorKind>,
}

impl SpecError {
    /// An error attributed to a 1-based source line.
    pub fn at(line: usize, message: impl Into<String>) -> Self {
        Self {
            line: Some(line),
            message: message.into(),
            kind: None,
        }
    }

    /// An error with no attributable source line.
    pub fn general(message: impl Into<String>) -> Self {
        Self {
            line: None,
            message: message.into(),
            kind: None,
        }
    }

    /// Tags this error with a model-level category.
    pub fn with_kind(mut self, kind: ErrorKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// The closed machine-readable code for this error: the model
    /// [`ErrorKind::code`] when known, [`SPEC_PARSE_KIND`] otherwise.
    pub fn code(&self) -> &'static str {
        self.kind.map(ErrorKind::code).unwrap_or(SPEC_PARSE_KIND)
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(n) => write!(f, "line {n}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<GablesError> for SpecError {
    fn from(e: GablesError) -> Self {
        SpecError::general(e.to_string()).with_kind(e.kind())
    }
}

/// A byte range into [`SpecFile::canonical`]. Keys, values, and section
/// names are stored as spans instead of owned strings: the canonical
/// text already contains every trimmed key and comma-collapsed value,
/// so the parser's only allocations are the canonical buffer itself and
/// the section vectors — not two heap strings per key.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn new(start: usize, len: usize) -> Self {
        Span {
            start: start as u32,
            len: len as u32,
        }
    }

    fn resolve<'a>(&self, text: &'a str) -> &'a str {
        &text[self.start as usize..(self.start + self.len) as usize]
    }
}

/// A section body: key -> (line number, value), kept in file order, with
/// both key and value as spans into the canonical text.
///
/// Sections hold a handful of keys, so a linear-scan `Vec` beats a tree
/// map on the parse hot path: one allocation per section instead of one
/// per node, and lookups walk a single contiguous buffer.
#[derive(Debug, Clone, PartialEq, Default)]
struct SectionBody(Vec<(Span, (usize, Span))>);

impl SectionBody {
    /// Resolves `key` against the canonical `text` this body indexes.
    fn get<'a>(&self, text: &'a str, key: &str) -> Option<(usize, &'a str)> {
        self.0
            .iter()
            .find(|(k, _)| k.resolve(text) == key)
            .map(|(_, (line, v))| (*line, v.resolve(text)))
    }

    fn contains_key(&self, text: &str, key: &str) -> bool {
        self.get(text, key).is_some()
    }
}

/// A parsed (but not yet validated) spec file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpecFile {
    /// Sections in file order: `(section name span, body)`.
    sections: Vec<(Span, SectionBody)>,
    /// The canonicalized source text (see [`canonicalize`]), built in
    /// the same pass that parses, so cache keys never re-normalize and
    /// every key/value span resolves against it.
    canonical: String,
}

impl SpecFile {
    /// Parses the INI-style text, building the canonical text (exactly
    /// what [`canonicalize`] produces) in the same pass.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] with a line number for malformed lines.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        if text.len() > u32::MAX as usize {
            return Err(SpecError::general("spec text too large"));
        }
        let mut sections: Vec<(Span, SectionBody)> = Vec::new();
        let mut canonical = String::with_capacity(text.len());
        // The current section's keys, so duplicates are caught in
        // linear time however many keys a section holds.
        let mut seen: HashSet<&str> = HashSet::new();
        for (idx, raw) in text.lines().enumerate() {
            let n = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let line_start = canonical.len();
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(SpecError::at(n, "unterminated section header"));
                };
                let name = name.trim();
                if name.is_empty() {
                    return Err(SpecError::at(n, "empty section name"));
                }
                // canonicalize() keeps header lines verbatim; the span
                // points at the trimmed name inside the brackets.
                canonical.push_str(line);
                canonical.push('\n');
                let offset = name.as_ptr() as usize - line.as_ptr() as usize;
                let span = Span::new(line_start + offset, name.len());
                sections.push((span, SectionBody::default()));
                seen.clear();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(SpecError::at(
                    n,
                    format!("expected `key = value`, got {line:?}"),
                ));
            };
            let Some((_, body)) = sections.last_mut() else {
                return Err(SpecError::at(n, "key before any [section]"));
            };
            let key = key.trim();
            if !seen.insert(key) {
                return Err(SpecError::at(n, format!("duplicate key {key:?}")));
            }
            // canonicalize() writes `key=` then the comma-collapsed
            // value; the spans index straight into those bytes.
            canonical.push_str(key);
            let key_span = Span::new(line_start, key.len());
            canonical.push('=');
            let value_start = canonical.len();
            for (i, piece) in value.split(',').enumerate() {
                if i > 0 {
                    canonical.push(',');
                }
                canonical.push_str(piece.trim());
            }
            let value_span = Span::new(value_start, canonical.len() - value_start);
            canonical.push('\n');
            body.0.push((key_span, (n, value_span)));
        }
        Ok(Self {
            sections,
            canonical,
        })
    }

    /// The canonicalized source text, suitable as a cache key (see
    /// [`canonicalize`]).
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    fn section(&self, name: &str) -> Option<&SectionBody> {
        self.sections
            .iter()
            .find(|(s, _)| s.resolve(&self.canonical) == name)
            .map(|(_, body)| body)
    }

    /// IP sections in file order: `(ip name, body)`. An iterator, not a
    /// collected `Vec` — callers count or walk it, and the hot eval path
    /// calls this three times per request.
    fn ip_sections(&self) -> impl Iterator<Item = (&str, &SectionBody)> {
        self.sections.iter().filter_map(|(s, body)| {
            s.resolve(&self.canonical)
                .strip_prefix("ip.")
                .map(|name| (name.trim(), body))
        })
    }

    /// Looks up and parses one numeric value, returning its source line
    /// for error attribution. Non-finite results (`nan`, `inf`, and
    /// overflow literals like `1e400` — all of which `f64::from_str`
    /// accepts) are rejected here, at the input boundary, in every build
    /// profile, so garbage can never reach the model or the cache key.
    fn raw_number(
        &self,
        body: &SectionBody,
        key: &str,
        section: &str,
    ) -> Result<(usize, f64), SpecError> {
        let (line, value) = body
            .get(&self.canonical, key)
            .ok_or_else(|| SpecError::general(format!("[{section}] missing key {key:?}")))?;
        let parsed = value.parse::<f64>().map_err(|_| {
            SpecError::at(
                line,
                format!("[{section}] {key} is not a number: {value:?}"),
            )
        })?;
        if !parsed.is_finite() {
            return Err(SpecError::at(
                line,
                format!("[{section}] {key} must be finite, got {value:?}"),
            )
            .with_kind(ErrorKind::InvalidParameter));
        }
        Ok((line, parsed))
    }

    fn number(&self, body: &SectionBody, key: &str, section: &str) -> Result<f64, SpecError> {
        self.raw_number(body, key, section).map(|(_, v)| v)
    }

    /// Like [`Self::raw_number`] for non-negative integer keys (cache
    /// geometry counts), rejecting fractions, signs, and junk outright
    /// via `u64::from_str`.
    fn raw_integer(
        &self,
        body: &SectionBody,
        key: &str,
        section: &str,
    ) -> Result<(usize, u64), SpecError> {
        let (line, value) = body
            .get(&self.canonical, key)
            .ok_or_else(|| SpecError::general(format!("[{section}] missing key {key:?}")))?;
        let parsed = value.parse::<u64>().map_err(|_| {
            SpecError::at(
                line,
                format!("[{section}] {key} is not a non-negative integer: {value:?}"),
            )
        })?;
        Ok((line, parsed))
    }

    /// Like [`Self::raw_number`] for a comma-separated list, rejecting
    /// non-finite entries with the entry index in the message.
    fn raw_number_list(
        &self,
        body: &SectionBody,
        key: &str,
        section: &str,
    ) -> Result<(usize, Vec<f64>), SpecError> {
        let (line, value) = body
            .get(&self.canonical, key)
            .ok_or_else(|| SpecError::general(format!("[{section}] missing key {key:?}")))?;
        let values = value
            .split(',')
            .enumerate()
            .map(|(idx, v)| {
                let parsed = v.trim().parse::<f64>().map_err(|_| {
                    SpecError::at(
                        line,
                        format!(
                            "[{section}] {key} entry {idx} is not a number: {:?}",
                            v.trim()
                        ),
                    )
                })?;
                if !parsed.is_finite() {
                    return Err(SpecError::at(
                        line,
                        format!(
                            "[{section}] {key} entry {idx} must be finite, got {:?}",
                            v.trim()
                        ),
                    )
                    .with_kind(ErrorKind::InvalidParameter));
                }
                Ok(parsed)
            })
            .collect::<Result<Vec<f64>, SpecError>>()?;
        Ok((line, values))
    }

    fn number_list(
        &self,
        body: &SectionBody,
        key: &str,
        section: &str,
    ) -> Result<Vec<f64>, SpecError> {
        self.raw_number_list(body, key, section).map(|(_, v)| v)
    }

    /// Builds the SoC specification.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for missing sections/keys or invalid model
    /// parameters.
    pub fn soc(&self) -> Result<SocSpec, SpecError> {
        let soc = self
            .section("soc")
            .ok_or_else(|| SpecError::general("missing [soc] section"))?;
        let (ppeak_line, ppeak) = self.raw_number(soc, "ppeak_gops", "soc")?;
        let ppeak = OpsPerSec::try_from_gops(ppeak).map_err(|e| {
            SpecError::at(ppeak_line, format!("[soc] ppeak_gops: {e}")).with_kind(e.kind())
        })?;
        let (bpeak_line, bpeak) = self.raw_number(soc, "bpeak_gbps", "soc")?;
        let bpeak = BytesPerSec::try_from_gbps(bpeak).map_err(|e| {
            SpecError::at(bpeak_line, format!("[soc] bpeak_gbps: {e}")).with_kind(e.kind())
        })?;
        let mut b = SocSpec::builder();
        b.ppeak(ppeak).bpeak(bpeak);
        let mut ip_count = 0usize;
        for (i, (name, body)) in self.ip_sections().enumerate() {
            ip_count += 1;
            let section = format!("ip.{name}");
            let (bw_line, bw) = self.raw_number(body, "bandwidth_gbps", &section)?;
            let bw = BytesPerSec::try_from_gbps(bw).map_err(|e| {
                SpecError::at(bw_line, format!("[{section}] bandwidth_gbps: {e}"))
                    .with_kind(e.kind())
            })?;
            if i == 0 {
                if body.contains_key(&self.canonical, "acceleration") {
                    let (a_line, a) = self.raw_number(body, "acceleration", &section)?;
                    if (a - 1.0).abs() > 1e-12 {
                        return Err(SpecError::at(
                            a_line,
                            format!(
                                "[{section}] is IP[0] (the CPU); its acceleration must be 1, got {a}"
                            ),
                        ));
                    }
                }
                b.cpu(name, bw);
            } else {
                let (a_line, a) = self.raw_number(body, "acceleration", &section)?;
                b.accelerator(name, a, bw).map_err(|e| {
                    SpecError::at(a_line, format!("[{section}] acceleration: {e}"))
                        .with_kind(e.kind())
                })?;
            }
        }
        if ip_count == 0 {
            return Err(SpecError::general("no [ip.<name>] sections"));
        }
        Ok(b.build()?)
    }

    /// Builds the workload (aligned with the IP section order).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for missing keys, length mismatches, or
    /// invalid fractions/intensities.
    pub fn workload(&self) -> Result<Workload, SpecError> {
        let w = self
            .section("workload")
            .ok_or_else(|| SpecError::general("missing [workload] section"))?;
        let (f_line, fractions) = self.raw_number_list(w, "fractions", "workload")?;
        let (i_line, intensities) = self.raw_number_list(w, "intensities", "workload")?;
        let n = self.ip_sections().count();
        if fractions.len() != n || intensities.len() != n {
            return Err(SpecError::general(format!(
                "workload lists must have one entry per IP ({n}); got {} fractions, {} intensities",
                fractions.len(),
                intensities.len()
            )));
        }
        let mut assignments = Vec::with_capacity(n);
        for (idx, (f, i)) in fractions.iter().zip(&intensities).enumerate() {
            let f = WorkFraction::new(*f).map_err(|e| {
                SpecError::at(f_line, format!("[workload] fractions entry {idx}: {e}"))
                    .with_kind(e.kind())
            })?;
            let i = OpsPerByte::try_new(*i).map_err(|e| {
                SpecError::at(i_line, format!("[workload] intensities entry {idx}: {e}"))
                    .with_kind(e.kind())
            })?;
            assignments.push(WorkAssignment::new(f, i).map_err(|e| {
                SpecError::at(i_line, format!("[workload] intensities entry {idx}: {e}"))
                    .with_kind(e.kind())
            })?);
        }
        Ok(Workload::from_assignments(assignments)?)
    }

    /// Builds the optional memory-side SRAM extension, if a `[sram]`
    /// section is present.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for malformed miss ratios or a length
    /// mismatch with the IP sections.
    pub fn sram(&self) -> Result<Option<MemorySideSram>, SpecError> {
        let Some(body) = self.section("sram") else {
            return Ok(None);
        };
        let (line, ratios) = self.raw_number_list(body, "miss_ratios", "sram")?;
        if ratios.len() != self.ip_sections().count() {
            return Err(SpecError::general(
                "sram miss_ratios must have one entry per IP",
            ));
        }
        let ratios = ratios
            .into_iter()
            .enumerate()
            .map(|(idx, r)| {
                MissRatio::new(r).map_err(|e| {
                    SpecError::at(line, format!("[sram] miss_ratios entry {idx}: {e}"))
                        .with_kind(e.kind())
                })
            })
            .collect::<Result<Vec<MissRatio>, SpecError>>()?;
        Ok(Some(MemorySideSram::new(ratios)))
    }

    /// Builds the optional cache-hierarchy description for the CARM
    /// subsystem from `[cache.<level>]` sections (one per level, file
    /// order, nearest level first), plus an optional plain `[cache]`
    /// section for DRAM parameters:
    ///
    /// ```text
    /// [cache]
    /// dram_latency_ns = 80       # optional, default 80
    ///
    /// [cache.l1]
    /// capacity_kib  = 32         # required
    /// latency_ns    = 1.2        # required
    /// line_bytes    = 64         # optional, default 64
    /// associativity = 8          # optional, default 8
    /// policy        = lru        # optional: lru | mru | way_prediction
    /// victim_lines  = 0          # optional, default 0
    /// ```
    ///
    /// Returns `Ok(None)` when the spec has no `[cache.*]` sections.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] with the closed `invalid_cache_config` kind
    /// and key+section+line context for malformed hierarchies: zero
    /// capacity or sets, non-power-of-two line size, unknown policy,
    /// non-positive latency, and level ordering violations.
    pub fn cache_hierarchy(&self) -> Result<Option<gables_soc_sim::HierarchyConfig>, SpecError> {
        use gables_soc_sim::cache_sim::CacheConfig;
        use gables_soc_sim::{HierarchyConfig, LevelConfig, ReplacementPolicy};

        let level_sections: Vec<(&str, &SectionBody)> = self
            .sections
            .iter()
            .filter_map(|(s, body)| {
                s.resolve(&self.canonical)
                    .strip_prefix("cache.")
                    .map(|name| (name.trim(), body))
            })
            .collect();
        if level_sections.is_empty() {
            return Ok(None);
        }
        let kind = ErrorKind::InvalidCacheConfig;
        let mut levels = Vec::new();
        let mut prev: Option<(String, u64)> = None;
        for (name, body) in level_sections {
            let section = format!("cache.{name}");
            let (cap_line, cap_kib) = self
                .raw_integer(body, "capacity_kib", &section)
                .map_err(|e| e.with_kind(kind))?;
            if cap_kib == 0 {
                return Err(SpecError::at(
                    cap_line,
                    format!("[{section}] capacity_kib must be positive"),
                )
                .with_kind(kind));
            }
            let capacity_bytes = cap_kib * 1024;
            let opt_int = |key: &str, default: u64| -> Result<(usize, u64), SpecError> {
                if body.contains_key(&self.canonical, key) {
                    self.raw_integer(body, key, &section)
                        .map_err(|e| e.with_kind(kind))
                } else {
                    // Defaults are always valid; violations therefore
                    // always have a real line. Fall back to the capacity
                    // line so the type stays simple.
                    Ok((cap_line, default))
                }
            };
            let (line_line, line_bytes) = opt_int("line_bytes", 64)?;
            if line_bytes == 0 || !line_bytes.is_power_of_two() {
                return Err(SpecError::at(
                    line_line,
                    format!("[{section}] line_bytes {line_bytes} must be a power of two"),
                )
                .with_kind(kind));
            }
            let (assoc_line, associativity) = opt_int("associativity", 8)?;
            if associativity == 0 || associativity > u64::from(u32::MAX) {
                return Err(SpecError::at(
                    assoc_line,
                    format!("[{section}] associativity {associativity} must be in 1..=2^32-1"),
                )
                .with_kind(kind));
            }
            let (victim_line, victim_lines) = opt_int("victim_lines", 0)?;
            if victim_lines > u64::from(u32::MAX) {
                return Err(SpecError::at(
                    victim_line,
                    format!("[{section}] victim_lines {victim_lines} is out of range"),
                )
                .with_kind(kind));
            }
            let (lat_line, latency_ns) = self
                .raw_number(body, "latency_ns", &section)
                .map_err(|e| e.with_kind(kind))?;
            if latency_ns <= 0.0 {
                return Err(SpecError::at(
                    lat_line,
                    format!("[{section}] latency_ns must be positive, got {latency_ns}"),
                )
                .with_kind(kind));
            }
            let policy = match body.get(&self.canonical, "policy") {
                None => ReplacementPolicy::Lru,
                Some((line, value)) => ReplacementPolicy::parse(value).ok_or_else(|| {
                    SpecError::at(
                        line,
                        format!(
                            "[{section}] policy {value:?} must be one of lru, mru, \
                             way_prediction"
                        ),
                    )
                    .with_kind(kind)
                })?,
            };
            let geometry = CacheConfig {
                capacity_bytes,
                line_bytes,
                associativity: associativity as u32,
            };
            // Remaining geometry failures (capacity below one set — the
            // zero-sets case — and a non-power-of-two set count) involve
            // several keys at once; attribute them to the capacity line.
            let single = gables_soc_sim::HierarchyConfig {
                levels: vec![LevelConfig {
                    name: name.to_string(),
                    geometry,
                    latency_ns,
                    policy,
                    victim_lines: victim_lines as u32,
                }],
                dram_latency_ns: 1.0,
            };
            if let Err(e) = single.validate() {
                return Err(SpecError::at(cap_line, format!("[{section}] {e}")).with_kind(kind));
            }
            if let Some((prev_name, prev_cap)) = &prev {
                if capacity_bytes <= *prev_cap {
                    return Err(SpecError::at(
                        cap_line,
                        format!(
                            "[{section}] capacity_kib: level ordering violation — {name} \
                             ({capacity_bytes} bytes) must be larger than {prev_name} \
                             ({prev_cap} bytes)"
                        ),
                    )
                    .with_kind(kind));
                }
            }
            prev = Some((name.to_string(), capacity_bytes));
            levels.push(LevelConfig {
                name: name.to_string(),
                geometry,
                latency_ns,
                policy,
                victim_lines: victim_lines as u32,
            });
        }
        let dram_latency_ns = match self.section("cache") {
            Some(body) if body.contains_key(&self.canonical, "dram_latency_ns") => {
                let (line, v) = self
                    .raw_number(body, "dram_latency_ns", "cache")
                    .map_err(|e| e.with_kind(kind))?;
                if v <= 0.0 {
                    return Err(SpecError::at(
                        line,
                        format!("[cache] dram_latency_ns must be positive, got {v}"),
                    )
                    .with_kind(kind));
                }
                v
            }
            _ => 80.0,
        };
        let config = HierarchyConfig {
            levels,
            dram_latency_ns,
        };
        // Backstop: every per-key check above should have caught any
        // problem already, but the simulator's own validation is the
        // final word.
        config
            .validate()
            .map_err(|e| SpecError::general(format!("cache hierarchy: {e}")).with_kind(kind))?;
        Ok(Some(config))
    }

    /// Builds the optional design-space exploration grid from an
    /// `[explore]` section:
    ///
    /// ```text
    /// [explore]
    /// accelerations = 2, 5, 10
    /// b1_gbps       = 5, 15, 30
    /// bpeak_gbps    = 10, 20, 40
    /// # optional cost weights (default 1 each, base 0):
    /// cost_per_gops = 0.5
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for malformed lists or a spec without
    /// exactly two IPs (the grid explores CPU + one accelerator).
    pub fn explore_grid(
        &self,
    ) -> Result<
        Option<(
            gables_model::explore::CandidateGrid,
            gables_model::explore::CostModel,
        )>,
        SpecError,
    > {
        use gables_model::explore::{CandidateGrid, CostModel};
        let Some(body) = self.section("explore") else {
            return Ok(None);
        };
        let soc = self.soc()?;
        if soc.ip_count() != 2 {
            return Err(SpecError::general(
                "[explore] requires exactly two [ip.*] sections (CPU + accelerator)",
            ));
        }
        let grid = CandidateGrid {
            ppeak_gops: soc.ppeak().to_gops(),
            b0_gbps: soc.ip(0)?.bandwidth().to_gbps(),
            accelerations: self.number_list(body, "accelerations", "explore")?,
            b1_gbps: self.number_list(body, "b1_gbps", "explore")?,
            bpeak_gbps: self.number_list(body, "bpeak_gbps", "explore")?,
        };
        let opt = |key: &str, default: f64| -> Result<f64, SpecError> {
            if body.contains_key(&self.canonical, key) {
                self.number(body, key, "explore")
            } else {
                Ok(default)
            }
        };
        let cost = CostModel {
            base: opt("cost_base", 0.0)?,
            per_accelerator_gops: opt("cost_per_gops", 1.0)?,
            per_port_gbps: opt("cost_per_port_gbps", 1.0)?,
            per_dram_gbps: opt("cost_per_dram_gbps", 1.0)?,
        };
        Ok(Some((grid, cost)))
    }

    /// The IP names in model order.
    pub fn ip_names(&self) -> Vec<String> {
        self.ip_sections()
            .map(|(name, _)| name.to_string())
            .collect()
    }
}

/// A parsed spec input, whatever the carrier: raw INI text (files, CLI)
/// or the JSON envelope `{"spec": "...", "edits": "..."}` the HTTP tier
/// accepts. This is the single entry point shared by every CLI
/// subcommand and serve endpoint — the two carriers are unambiguous
/// because spec files start with `#` or `[` while JSON starts with `{`.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// Raw INI spec text.
    Ini(SpecFile),
    /// A JSON envelope wrapping spec text, optionally with a what-if
    /// edit chain.
    Json {
        /// The spec parsed from the envelope's `"spec"` string field.
        file: SpecFile,
        /// The envelope's optional `"edits"` string field.
        edits: Option<String>,
    },
}

impl Spec {
    /// Parses either carrier.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for empty input, malformed JSON, an
    /// envelope without a string `"spec"` field, or malformed spec text.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        use gables_model::json::Json;
        let trimmed = text.trim_start();
        if trimmed.starts_with('{') {
            let doc =
                Json::parse(text).map_err(|e| SpecError::general(format!("request JSON: {e}")))?;
            let spec_text = doc.get("spec").and_then(Json::as_str).ok_or_else(|| {
                SpecError::general("JSON envelope must have a string \"spec\" field")
            })?;
            let edits = doc.get("edits").and_then(Json::as_str).map(str::to_string);
            Ok(Spec::Json {
                file: SpecFile::parse(spec_text)?,
                edits,
            })
        } else if trimmed.is_empty() {
            Err(SpecError::general(
                "empty input: send spec text or {\"spec\": \"...\"}",
            ))
        } else {
            Ok(Spec::Ini(SpecFile::parse(text)?))
        }
    }

    /// The underlying parsed spec file, whichever carrier it arrived in.
    pub fn file(&self) -> &SpecFile {
        match self {
            Spec::Ini(file) | Spec::Json { file, .. } => file,
        }
    }

    /// The edit chain from a JSON envelope, if one was supplied.
    pub fn edits(&self) -> Option<&str> {
        match self {
            Spec::Ini(_) => None,
            Spec::Json { edits, .. } => edits.as_deref(),
        }
    }

    /// The canonical cache key for this spec: the canonicalized spec
    /// text regardless of carrier, so the same design wrapped in JSON
    /// and sent raw share one cache entry.
    pub fn canonical_key(&self) -> &str {
        self.file().canonical()
    }

    /// Builds the SoC specification (see [`SpecFile::soc`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for missing sections/keys or invalid model
    /// parameters.
    pub fn soc(&self) -> Result<SocSpec, SpecError> {
        self.file().soc()
    }

    /// Builds the workload (see [`SpecFile::workload`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for missing keys, length mismatches, or
    /// invalid fractions/intensities.
    pub fn workload(&self) -> Result<Workload, SpecError> {
        self.file().workload()
    }

    /// Builds the optional SRAM extension (see [`SpecFile::sram`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for malformed miss ratios or a length
    /// mismatch with the IP sections.
    pub fn sram(&self) -> Result<Option<MemorySideSram>, SpecError> {
        self.file().sram()
    }

    /// Builds the optional cache hierarchy (see
    /// [`SpecFile::cache_hierarchy`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] with the `invalid_cache_config` kind for
    /// malformed hierarchies.
    pub fn cache_hierarchy(&self) -> Result<Option<gables_soc_sim::HierarchyConfig>, SpecError> {
        self.file().cache_hierarchy()
    }

    /// Builds the optional exploration grid (see
    /// [`SpecFile::explore_grid`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for malformed lists or a spec without
    /// exactly two IPs.
    #[allow(clippy::type_complexity)]
    pub fn explore_grid(
        &self,
    ) -> Result<
        Option<(
            gables_model::explore::CandidateGrid,
            gables_model::explore::CostModel,
        )>,
        SpecError,
    > {
        self.file().explore_grid()
    }

    /// The IP names in model order (see [`SpecFile::ip_names`]).
    pub fn ip_names(&self) -> Vec<String> {
        self.file().ip_names()
    }
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// Normalizes spec text for use as a cache key: comments and blank lines
/// are dropped, whitespace around keys/values/section headers is
/// collapsed, so cosmetically different spellings of the same spec map
/// to the same string. This is purely textual — it does not validate the
/// spec, so it is cheap enough to run on every request.
pub fn canonicalize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let line = strip_comment(line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some((key, value)) = line.split_once('=') {
            out.push_str(key.trim());
            out.push('=');
            // Collapse spacing inside list values ("8, 0.1" == "8,0.1"),
            // writing the pieces straight into the output buffer.
            for (idx, piece) in value.split(',').enumerate() {
                if idx > 0 {
                    out.push(',');
                }
                out.push_str(piece.trim());
            }
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// A ready-to-use spec string for the paper's Figure 6b scenario (used by
/// `gables example` and tests).
pub const FIGURE_6B_SPEC: &str = "\
# Gables spec: the paper's Figure 6b scenario
[soc]
ppeak_gops = 40
bpeak_gbps = 10

[ip.CPU]
bandwidth_gbps = 6

[ip.GPU]
acceleration = 5
bandwidth_gbps = 15

[workload]
fractions   = 0.25, 0.75
intensities = 8, 0.1
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_6b_spec_round_trips() {
        let spec = SpecFile::parse(FIGURE_6B_SPEC).unwrap();
        let soc = spec.soc().unwrap();
        let w = spec.workload().unwrap();
        assert_eq!(spec.ip_names(), vec!["CPU", "GPU"]);
        let eval = gables_model::evaluate(&soc, &w).unwrap();
        assert!((eval.attainable().to_gops() - 1.3278).abs() < 1e-3);
        assert!(spec.sram().unwrap().is_none());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# leading comment\n[soc] # trailing\nppeak_gops = 1 # eol\nbpeak_gbps = 1\n\n[ip.CPU]\nbandwidth_gbps = 1\n[workload]\nfractions = 1\nintensities = 8\n";
        let spec = SpecFile::parse(text).unwrap();
        assert!(spec.soc().is_ok());
        assert!(spec.workload().is_ok());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = SpecFile::parse("[soc\n").unwrap_err();
        assert_eq!(err.line, Some(1));
        assert!(err.to_string().contains("line 1"));

        let err = SpecFile::parse("key = 1\n").unwrap_err();
        assert!(err.message.contains("before any"));

        let err = SpecFile::parse("[soc]\nnonsense\n").unwrap_err();
        assert_eq!(err.line, Some(2));

        let err = SpecFile::parse("[soc]\nx = 1\nx = 2\n").unwrap_err();
        assert!(err.message.contains("duplicate"));

        // In a long section both early and late keys are caught, and a
        // new section starts afresh.
        let mut many = String::from("[soc]\n");
        for i in 0..40 {
            many.push_str(&format!("k{i} = 1\n"));
        }
        let next = format!("{many}[ip.CPU]\nk0 = 1\nk39 = 1\n");
        assert!(SpecFile::parse(&next).is_ok());
        for dup in ["k3", "k30"] {
            let err = SpecFile::parse(&format!("{many}{dup} = 2\n")).unwrap_err();
            assert_eq!(err.line, Some(42), "{dup}: {err}");
            assert!(err.message.contains("duplicate"));
        }

        let err = SpecFile::parse("[]\n").unwrap_err();
        assert!(err.message.contains("empty section"));
    }

    #[test]
    fn missing_pieces_are_reported() {
        let spec = SpecFile::parse("[workload]\nfractions = 1\nintensities = 1\n").unwrap();
        assert!(spec.soc().unwrap_err().message.contains("[soc]"));

        let spec = SpecFile::parse("[soc]\nppeak_gops = 1\nbpeak_gbps = 1\n").unwrap();
        assert!(spec.soc().unwrap_err().message.contains("no [ip"));

        let spec = SpecFile::parse(FIGURE_6B_SPEC).unwrap();
        assert!(spec.workload().is_ok());
        let no_wl = SpecFile::parse(
            "[soc]\nppeak_gops = 1\nbpeak_gbps = 1\n[ip.CPU]\nbandwidth_gbps = 1\n",
        )
        .unwrap();
        assert!(no_wl.workload().unwrap_err().message.contains("[workload]"));
    }

    #[test]
    fn bad_numbers_are_line_attributed() {
        let text = "[soc]\nppeak_gops = forty\nbpeak_gbps = 1\n";
        let spec = SpecFile::parse(text).unwrap();
        let err = spec.soc().unwrap_err();
        assert_eq!(err.line, Some(2));
    }

    #[test]
    fn errors_name_key_section_and_line() {
        // The offending key, its section, and the 1-based line number all
        // appear so a user can fix the spec without guessing.
        let text = "[soc]\nppeak_gops = forty\nbpeak_gbps = 1\n";
        let err = SpecFile::parse(text).unwrap().soc().unwrap_err();
        assert!(err.message.contains("[soc]"), "{err}");
        assert!(err.message.contains("ppeak_gops"), "{err}");
        assert_eq!(err.line, Some(2));
        assert!(err.to_string().starts_with("line 2:"), "{err}");

        let text = "[soc]\nppeak_gops = 1\nbpeak_gbps = 1\n[ip.CPU]\nbandwidth_gbps = 1\n[ip.GPU]\nacceleration = -2\nbandwidth_gbps = 1\n";
        let err = SpecFile::parse(text).unwrap().soc().unwrap_err();
        assert!(err.message.contains("[ip.GPU]"), "{err}");
        assert!(err.message.contains("acceleration"), "{err}");
        assert_eq!(err.line, Some(7));

        let text = format!(
            "{}\n[sram]\nmiss_ratios = 1.0, 2.5\n",
            FIGURE_6B_SPEC.trim_end()
        );
        let err = SpecFile::parse(&text).unwrap().sram().unwrap_err();
        assert!(err.message.contains("[sram]"), "{err}");
        assert!(err.message.contains("miss_ratios entry 1"), "{err}");
        assert!(err.line.is_some());
    }

    #[test]
    fn non_finite_literals_are_rejected_at_parse_boundary() {
        // `f64::from_str` happily parses all of these; the spec layer must
        // not let them through in any build profile.
        for bad in ["nan", "NaN", "inf", "infinity", "-inf", "1e400", "-1e400"] {
            let text = format!(
                "[soc]\nppeak_gops = {bad}\nbpeak_gbps = 1\n[ip.CPU]\nbandwidth_gbps = 1\n"
            );
            let err = SpecFile::parse(&text).unwrap().soc().unwrap_err();
            assert_eq!(err.line, Some(2), "{bad}: {err}");
            assert!(err.message.contains("ppeak_gops"), "{bad}: {err}");
            assert_eq!(err.code(), "invalid_parameter", "{bad}: {err}");

            let text = format!(
                "[soc]\nppeak_gops = 1\nbpeak_gbps = 1\n[ip.CPU]\nbandwidth_gbps = 1\n[workload]\nfractions = 1\nintensities = {bad}\n"
            );
            let err = SpecFile::parse(&text).unwrap().workload().unwrap_err();
            assert!(err.message.contains("intensities"), "{bad}: {err}");
            assert_eq!(err.line, Some(8), "{bad}: {err}");
        }
    }

    #[test]
    fn degenerate_positive_values_are_rejected() {
        // -0.0, zero, and subnormals parse fine and are finite, but are
        // outside the model's domain for peak rates and bandwidths.
        for bad in ["-0.0", "0", "1e-310", "-5"] {
            let text = format!(
                "[soc]\nppeak_gops = 1\nbpeak_gbps = {bad}\n[ip.CPU]\nbandwidth_gbps = 1\n"
            );
            let err = SpecFile::parse(&text).unwrap().soc().unwrap_err();
            assert!(err.message.contains("bpeak_gbps"), "{bad}: {err}");
            assert_eq!(err.line, Some(3), "{bad}: {err}");
            assert_eq!(err.code(), "invalid_parameter", "{bad}: {err}");
        }
        // Huge-but-finite Gops/s values that overflow the canonical
        // ops/s scaling are caught with attribution too.
        let text = "[soc]\nppeak_gops = 1e305\nbpeak_gbps = 1\n[ip.CPU]\nbandwidth_gbps = 1\n";
        let err = SpecFile::parse(text).unwrap().soc().unwrap_err();
        assert_eq!(err.line, Some(2), "{err}");
        assert_eq!(err.code(), "invalid_parameter");
    }

    #[test]
    fn spec_error_codes_are_closed() {
        // Parse-level problems report the spec_parse kind; model-level
        // problems carry their GablesError category.
        let err = SpecFile::parse("[soc\n").unwrap_err();
        assert_eq!(err.code(), SPEC_PARSE_KIND);
        let err = SpecError::from(GablesError::NoIps);
        assert_eq!(err.code(), "no_ips");
        let text = "[soc]\nppeak_gops = 1\nbpeak_gbps = 1\n[ip.CPU]\nbandwidth_gbps = 1\n[workload]\nfractions = 0.5\nintensities = 1\n";
        let err = SpecFile::parse(text).unwrap().workload().unwrap_err();
        assert_eq!(err.code(), "work_fraction_sum");
    }

    #[test]
    fn cpu_acceleration_must_be_unity() {
        let text = "[soc]\nppeak_gops = 1\nbpeak_gbps = 1\n[ip.CPU]\nacceleration = 2\nbandwidth_gbps = 1\n";
        let spec = SpecFile::parse(text).unwrap();
        assert!(spec
            .soc()
            .unwrap_err()
            .message
            .contains("acceleration must be 1"));
    }

    #[test]
    fn workload_length_mismatch() {
        let text = FIGURE_6B_SPEC.replace("fractions   = 0.25, 0.75", "fractions = 1");
        let spec = SpecFile::parse(&text).unwrap();
        assert!(spec
            .workload()
            .unwrap_err()
            .message
            .contains("one entry per IP"));
    }

    #[test]
    fn sram_section_builds_extension() {
        let text = format!("{FIGURE_6B_SPEC}\n[sram]\nmiss_ratios = 1.0, 0.1\n");
        let spec = SpecFile::parse(&text).unwrap();
        let sram = spec.sram().unwrap().expect("present");
        assert_eq!(sram.miss_ratios().len(), 2);
        let soc = spec.soc().unwrap();
        let w = spec.workload().unwrap();
        let eval = sram.evaluate(&soc, &w).unwrap();
        assert!(eval.attainable().to_gops() > 1.33);

        let bad = format!("{FIGURE_6B_SPEC}\n[sram]\nmiss_ratios = 1.0\n");
        let spec = SpecFile::parse(&bad).unwrap();
        assert!(spec.sram().is_err());
    }

    #[test]
    fn canonicalize_erases_cosmetic_differences() {
        let a = canonicalize(FIGURE_6B_SPEC);
        let b = canonicalize(
            "[soc]\n  ppeak_gops=40   # comment\nbpeak_gbps =  10\n\n\n[ip.CPU]\nbandwidth_gbps = 6\n[ip.GPU]\nacceleration=5\nbandwidth_gbps=15\n[workload]\nfractions = 0.25,0.75\nintensities = 8,0.1\n",
        );
        assert_eq!(a, b);
        // But a real change still changes the key.
        let c = canonicalize(&FIGURE_6B_SPEC.replace("bpeak_gbps = 10", "bpeak_gbps = 20"));
        assert_ne!(a, c);
    }

    #[test]
    fn spec_parses_raw_ini() {
        let spec = Spec::parse(FIGURE_6B_SPEC).unwrap();
        assert!(matches!(spec, Spec::Ini(_)));
        assert!(spec.edits().is_none());
        let eval = gables_model::evaluate(&spec.soc().unwrap(), &spec.workload().unwrap());
        assert!((eval.unwrap().attainable().to_gops() - 1.3278).abs() < 1e-3);
    }

    #[test]
    fn spec_parses_json_envelope_with_and_without_edits() {
        let escaped = FIGURE_6B_SPEC.replace('\n', "\\n");
        let bare = format!("{{\"spec\": \"{escaped}\"}}");
        let spec = Spec::parse(&bare).unwrap();
        assert!(matches!(spec, Spec::Json { .. }));
        assert!(spec.edits().is_none());
        assert_eq!(spec.ip_names(), vec!["CPU", "GPU"]);

        let with_edits = format!("{{\"spec\": \"{escaped}\", \"edits\": \"set_bpeak 20\"}}");
        let spec = Spec::parse(&with_edits).unwrap();
        assert_eq!(spec.edits(), Some("set_bpeak 20"));
    }

    #[test]
    fn spec_rejects_bad_carriers() {
        let err = Spec::parse("").unwrap_err();
        assert!(err.to_string().contains("empty input"), "{err}");

        let err = Spec::parse("{\"spec\": 42}").unwrap_err();
        assert!(err.to_string().contains("string \"spec\" field"), "{err}");

        let err = Spec::parse("{not json").unwrap_err();
        assert!(err.to_string().contains("request JSON"), "{err}");

        // Malformed values inside a valid envelope surface when built.
        let spec = Spec::parse("{\"spec\": \"[soc]\\nppeak_gops = no\"}").unwrap();
        assert!(spec.soc().is_err());
    }

    #[test]
    fn cache_hierarchy_parses_levels_in_file_order() {
        let text = format!(
            "{FIGURE_6B_SPEC}\n\
             [cache.l1]\ncapacity_kib = 4\nassociativity = 4\nlatency_ns = 1\n\
             [cache.l2]\ncapacity_kib = 32\nline_bytes = 128\nlatency_ns = 4\npolicy = mru\nvictim_lines = 4\n\
             [cache]\ndram_latency_ns = 60\n"
        );
        let spec = SpecFile::parse(&text).unwrap();
        let h = spec.cache_hierarchy().unwrap().expect("present");
        assert_eq!(h.levels.len(), 2);
        assert_eq!(h.levels[0].name, "l1");
        assert_eq!(h.levels[0].geometry.capacity_bytes, 4 * 1024);
        assert_eq!(h.levels[0].geometry.line_bytes, 64); // default
        assert_eq!(h.levels[0].geometry.associativity, 4);
        assert_eq!(h.levels[1].name, "l2");
        assert_eq!(h.levels[1].geometry.line_bytes, 128);
        assert_eq!(h.levels[1].policy.name(), "mru");
        assert_eq!(h.levels[1].victim_lines, 4);
        assert_eq!(h.dram_latency_ns, 60.0);

        // No [cache.*] sections at all: cleanly absent, not an error.
        let spec = SpecFile::parse(FIGURE_6B_SPEC).unwrap();
        assert!(spec.cache_hierarchy().unwrap().is_none());
    }

    #[test]
    fn cache_hierarchy_rejections_carry_code_and_line() {
        let check = |extra: &str, needle: &str| {
            let text = format!("{FIGURE_6B_SPEC}\n{extra}");
            let err = SpecFile::parse(&text)
                .unwrap()
                .cache_hierarchy()
                .unwrap_err();
            assert_eq!(err.code(), "invalid_cache_config", "{extra:?}: {err}");
            assert!(err.message.contains(needle), "{extra:?}: {err}");
            assert!(err.line.is_some(), "{extra:?} should name a line: {err}");
        };
        // Zero capacity (the zero-sets case).
        check(
            "[cache.l1]\ncapacity_kib = 0\nlatency_ns = 1\n",
            "capacity_kib",
        );
        // Non-power-of-two line size.
        check(
            "[cache.l1]\ncapacity_kib = 4\nline_bytes = 48\nlatency_ns = 1\n",
            "power of two",
        );
        // Unknown replacement policy.
        check(
            "[cache.l1]\ncapacity_kib = 4\nlatency_ns = 1\npolicy = rainbow\n",
            "lru, mru, way_prediction",
        );
        // Non-positive latency.
        check(
            "[cache.l1]\ncapacity_kib = 4\nlatency_ns = 0\n",
            "latency_ns",
        );
        // Level ordering violation: l2 not larger than l1.
        check(
            "[cache.l1]\ncapacity_kib = 32\nlatency_ns = 1\n\
             [cache.l2]\ncapacity_kib = 32\nlatency_ns = 4\n",
            "level ordering violation",
        );
        // Missing required capacity key.
        let text = format!("{FIGURE_6B_SPEC}\n[cache.l1]\nlatency_ns = 1\n");
        let err = SpecFile::parse(&text)
            .unwrap()
            .cache_hierarchy()
            .unwrap_err();
        assert_eq!(err.code(), "invalid_cache_config");
        assert!(err.message.contains("capacity_kib"), "{err}");
    }

    #[test]
    fn spec_parse_runs_in_linear_time() {
        // Per-byte parse cost at 256 KiB must stay within a small factor
        // of the cost at 16 KiB, for both carriers and for a spec that
        // grows by sections as well as one that grows by keys within a
        // section (a quadratic scan is 16x worse per byte).
        fn grow(head: &str, unit: &dyn Fn(usize) -> String, bytes: usize) -> String {
            let mut text = head.to_string();
            for i in 0.. {
                if text.len() >= bytes {
                    break;
                }
                text += &unit(i);
            }
            text
        }
        fn json_carrier(ini: &str) -> String {
            let spec = ini.replace('\n', "\\n");
            format!("{{\"spec\": \"{spec}\", \"edits\": \"set_bpeak 20\"}}")
        }
        fn ns_per_byte(text: &str) -> f64 {
            let best = (0..5)
                .map(|_| {
                    let start = std::time::Instant::now();
                    let spec = Spec::parse(std::hint::black_box(text)).unwrap();
                    std::hint::black_box(spec);
                    start.elapsed()
                })
                .min()
                .unwrap();
            best.as_nanos() as f64 / text.len() as f64
        }
        let by_sections = |i| format!("[ip.X{i}]\nacceleration = 2.5\nbandwidth_gbps = 12.75\n");
        let by_keys = |i| format!("note_{i} = 1, 2, 3\n");
        for (shape, head, unit) in [
            ("sections", "", &by_sections as &dyn Fn(usize) -> String),
            ("keys", "[notes]\n", &by_keys),
        ] {
            let head = format!("{FIGURE_6B_SPEC}{head}");
            let (small, large) = (grow(&head, unit, 16 * 1024), grow(&head, unit, 256 * 1024));
            assert_eq!(
                Spec::parse(&large).unwrap().canonical_key(),
                Spec::parse(&json_carrier(&large)).unwrap().canonical_key()
            );
            for (carrier, small, large) in [
                ("ini", small.clone(), large.clone()),
                ("json", json_carrier(&small), json_carrier(&large)),
            ] {
                let (small_cost, large_cost) = (ns_per_byte(&small), ns_per_byte(&large));
                assert!(
                    large_cost < 3.0 * small_cost,
                    "{carrier} spec growing by {shape}: per-byte cost grew from \
                     {small_cost:.2} ns at 16 KiB to {large_cost:.2} ns at 256 KiB"
                );
            }
        }
    }

    #[test]
    fn canonical_key_is_carrier_independent() {
        let ini = Spec::parse(FIGURE_6B_SPEC).unwrap();
        let respelled = FIGURE_6B_SPEC.replace("ppeak_gops = 40", "  ppeak_gops=40   # comment");
        let escaped = respelled.replace('\n', "\\n");
        let json = Spec::parse(&format!("{{\"spec\": \"{escaped}\"}}")).unwrap();
        assert_eq!(ini.canonical_key(), json.canonical_key());
    }
}
