//! Spans recorded by the benchmark around its calls into each layer,
//! kept in memory and written out when the run ends.

use crate::gen::{Kind, Spec};
use net::wire::RespStatus;
use serve::pool::JobClass;
use std::io::Write;

/// One timed interval. A root span (`parent == None`) describes one
/// request; its children share its `request` id.
#[derive(Clone, Debug)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub kind: Option<Kind>,
    pub class: Option<JobClass>,
    pub status: Option<RespStatus>,
}

impl Span {
    /// The root span of one request sent over the wire.
    pub fn request(id: u64, spec: &Spec, start_ns: u64, end_ns: u64, status: RespStatus) -> Span {
        Span {
            request: id,
            name: "request",
            parent: None,
            start_ns,
            end_ns,
            kind: Some(spec.kind),
            class: Some(spec.class),
            status: Some(status),
        }
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one phase of a run.
pub struct Spans {
    pub phase: &'static str,
    /// Name of the root span that children in this set hang under.
    pub root_name: &'static str,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(phase: &'static str, root_name: &'static str) -> Spans {
        Spans {
            phase,
            root_name,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    pub fn child(&mut self, request: u64, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            request,
            name,
            parent: Some(self.root_name),
            start_ns,
            end_ns,
            kind: None,
            class: None,
            status: None,
        });
    }

    pub fn root(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Durations of every span called `name`, in ns.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// One JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write, workload: &str) -> std::io::Result<()> {
        for s in &self.spans {
            let opt = |v: Option<String>| v.map_or("null".to_string(), |v| format!("\"{v}\""));
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"phase\":\"{}\",\"request\":{},\"name\":\"{}\",\
                 \"parent\":{},\"start_ns\":{},\"end_ns\":{},\"op\":{},\"class\":{},\"status\":{}}}",
                self.phase,
                s.request,
                s.name,
                opt(s.parent.map(str::to_string)),
                s.start_ns,
                s.end_ns,
                opt(s.kind.map(|k| k.label().to_string())),
                opt(s.class.map(|c| c.to_string())),
                opt(s.status.map(|st| format!("{st:?}"))),
            )?;
        }
        Ok(())
    }
}
