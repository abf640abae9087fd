//! Rust source emission from the resolved IDL model.

use crate::names::{camel, relative_path, snake, snake_raw, upper};
use crate::CodegenOptions;
use pardis_idl::ast::PragmaMap;
use pardis_idl::model::{
    flat_key, Model, NamedType, RConst, RDir, RDist, RInterface, ROp, RParam, RType,
};
use std::fmt::Write;

/// Generate Rust source for a resolved model.
///
/// The output is a self-contained sequence of items (types, proxies,
/// skeletons) mirroring the IDL module structure, meant to be `include!`d
/// into a module of the consuming crate.
pub fn generate(model: &Model, opts: &CodegenOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// Generated by pardis-idlc. Do not edit.\n");
    emit_scope(&mut out, model, opts, &[], 0);
    out
}

/// Emit everything that lives directly in module `path`, then recurse into
/// child modules.
fn emit_scope(
    out: &mut String,
    model: &Model,
    opts: &CodegenOptions,
    path: &[String],
    depth: usize,
) {
    let pad = "    ".repeat(depth);

    for c in model.consts.iter().filter(|c| c.path == path) {
        emit_const(out, c, &pad);
    }
    for t in model.types.iter().filter(|t| type_path(t).0 == path) {
        emit_type(out, model, t, path, &pad);
    }
    for iface in model.interfaces.iter().filter(|i| i.path == path) {
        emit_interface(out, model, opts, iface, &pad);
    }

    // Child modules, in first-appearance order.
    let mut children: Vec<String> = Vec::new();
    let mut consider = |seg: Option<&String>| {
        if let Some(seg) = seg {
            if !children.iter().any(|c| c == seg) {
                children.push(seg.clone());
            }
        }
    };
    for c in &model.consts {
        consider(child_segment(&c.path, path));
    }
    for t in &model.types {
        consider(child_segment(type_path(t).0, path));
    }
    for i in &model.interfaces {
        consider(child_segment(&i.path, path));
    }

    for seg in &children {
        let _ = writeln!(out, "{pad}/// IDL module `{seg}`.");
        let _ = writeln!(out, "{pad}pub mod {} {{", snake(seg));
        let mut sub: Vec<String> = path.to_vec();
        sub.push(seg.clone());
        emit_scope(out, model, opts, &sub, depth + 1);
        let _ = writeln!(out, "{pad}}}");
    }
}

/// A named type's module path and IDL name.
fn type_path(t: &NamedType) -> (&[String], &str) {
    match t {
        NamedType::Alias { path, name, .. }
        | NamedType::Struct { path, name, .. }
        | NamedType::Enum { path, name, .. }
        | NamedType::Exception { path, name, .. } => (path, name),
    }
}

/// If `p` is a strict descendant of `here`, the next segment down.
fn child_segment<'a>(p: &'a [String], here: &[String]) -> Option<&'a String> {
    (p.len() > here.len() && p.starts_with(here)).then(|| &p[here.len()])
}

/// The Rust type for an IDL type, as seen from module `here`.
fn rust_ty(model: &Model, ty: &RType, here: &[String]) -> String {
    match ty {
        RType::Void => "()".into(),
        RType::Boolean => "bool".into(),
        RType::Octet => "u8".into(),
        RType::Char => "char".into(),
        RType::Short => "i16".into(),
        RType::UShort => "u16".into(),
        RType::Long => "i32".into(),
        RType::ULong => "u32".into(),
        RType::LongLong => "i64".into(),
        RType::ULongLong => "u64".into(),
        RType::Float => "f32".into(),
        RType::Double => "f64".into(),
        RType::String => "String".into(),
        RType::Sequence { elem, .. } => format!("Vec<{}>", rust_ty(model, elem, here)),
        RType::DSequence { elem, .. } => {
            format!("::pardis_core::DSequence<{}>", rust_ty(model, elem, here))
        }
        RType::Array { elem, len } => {
            format!("[{}; {len}usize]", rust_ty(model, elem, here))
        }
        RType::StructRef(key) | RType::EnumRef(key) => named_path(model, key, here),
        RType::InterfaceRef(_) => "::pardis_core::ObjectRef".into(),
    }
}

/// Path to the Rust item generated for named type `key`, from `here`.
fn named_path(model: &Model, key: &str, here: &[String]) -> String {
    match model.types.iter().find(|t| t.key() == key) {
        Some(t) => {
            let (path, name) = type_path(t);
            relative_path(here, path, &camel(name))
        }
        // Unreachable for well-formed models; emit something that fails loudly.
        None => format!("compile_error!(\"unresolved type {key}\")"),
    }
}

fn emit_const(out: &mut String, c: &RConst, pad: &str) {
    let ty = match c.ty {
        RType::Short => "i16",
        RType::UShort => "u16",
        RType::Long => "i32",
        RType::ULong => "u32",
        RType::LongLong => "i64",
        RType::ULongLong => "u64",
        RType::Octet => "u8",
        _ => "i64",
    };
    let _ = writeln!(out, "{pad}/// IDL constant `{}`.", c.name);
    let _ = writeln!(out, "{pad}pub const {}: {ty} = {};", upper(&c.name), c.value);
}

fn emit_type(out: &mut String, model: &Model, t: &NamedType, here: &[String], pad: &str) {
    match t {
        NamedType::Alias { name, ty, .. } => {
            let _ = writeln!(out, "{pad}/// IDL typedef `{name}`.");
            let _ = writeln!(out, "{pad}pub type {} = {};", camel(name), rust_ty(model, ty, here));
        }
        NamedType::Struct { name, fields, .. } => {
            emit_record(out, model, here, pad, name, fields, false);
        }
        NamedType::Exception { name, fields, .. } => {
            emit_record(out, model, here, pad, name, fields, true);
            let rust_name = camel(name);
            let key = t.key();
            let _ = writeln!(out, "{pad}impl {rust_name} {{");
            let _ = writeln!(out, "{pad}    /// Exception repository id.");
            let _ = writeln!(out, "{pad}    pub const REPO_ID: &'static str = \"{key}\";");
            let _ = writeln!(
                out,
                "{pad}    /// Recover a typed exception from a client-side error, if it is\n\
                 {pad}    /// this exception.\n\
                 {pad}    pub fn from_error(e: &::pardis_core::OrbError) -> Option<Self> {{\n\
                 {pad}        if let ::pardis_core::OrbError::UserException {{ id, data }} = e {{\n\
                 {pad}            if id == Self::REPO_ID {{\n\
                 {pad}                return ::pardis_cdr::decode_slice::<Self>(data).ok();\n\
                 {pad}            }}\n\
                 {pad}        }}\n\
                 {pad}        None\n\
                 {pad}    }}"
            );
            let _ = writeln!(out, "{pad}}}");
            let _ = writeln!(
                out,
                "{pad}impl From<{rust_name}> for ::pardis_core::Raised {{\n\
                 {pad}    fn from(x: {rust_name}) -> Self {{\n\
                 {pad}        ::pardis_core::Raised::new({rust_name}::REPO_ID, &x)\n\
                 {pad}    }}\n\
                 {pad}}}"
            );
            let _ = writeln!(
                out,
                "{pad}impl ::std::fmt::Display for {rust_name} {{\n\
                 {pad}    fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {{\n\
                 {pad}        write!(f, \"{name}: {{self:?}}\")\n\
                 {pad}    }}\n\
                 {pad}}}\n\
                 {pad}impl ::std::error::Error for {rust_name} {{}}"
            );
        }
        NamedType::Enum { name, variants, .. } => {
            let rust_name = camel(name);
            let _ = writeln!(out, "{pad}/// IDL enum `{name}`.");
            let _ = writeln!(out, "{pad}#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]");
            let _ = writeln!(out, "{pad}pub enum {rust_name} {{");
            for (i, v) in variants.iter().enumerate() {
                let _ =
                    writeln!(out, "{pad}    /// `{v}` (discriminant {i}).\n{pad}    {},", camel(v));
            }
            let _ = writeln!(out, "{pad}}}");
            let _ = writeln!(out, "{pad}impl ::pardis_cdr::CdrCodec for {rust_name} {{");
            let _ = writeln!(out, "{pad}    fn encode(&self, e: &mut ::pardis_cdr::Encoder) {{");
            let _ = writeln!(out, "{pad}        e.write_u32(*self as u32);");
            let _ = writeln!(out, "{pad}    }}");
            let _ = writeln!(
                out,
                "{pad}    fn decode(d: &mut ::pardis_cdr::Decoder) -> Result<Self, ::pardis_cdr::CdrError> {{"
            );
            let _ = writeln!(out, "{pad}        match d.read_u32()? {{");
            for (i, v) in variants.iter().enumerate() {
                let _ = writeln!(out, "{pad}            {i} => Ok({rust_name}::{}),", camel(v));
            }
            let _ = writeln!(
                out,
                "{pad}            other => Err(::pardis_cdr::CdrError::InvalidEnumDiscriminant {{ name: \"{name}\".to_string(), value: other }}),"
            );
            let _ = writeln!(out, "{pad}        }}");
            let _ = writeln!(out, "{pad}    }}");
            let _ = writeln!(out, "{pad}    fn type_code() -> ::pardis_cdr::TypeCode {{");
            let _ = writeln!(out, "{pad}        ::pardis_cdr::TypeCode::Enum {{");
            let _ = writeln!(out, "{pad}            name: \"{name}\".to_string(),");
            let _ = writeln!(out, "{pad}            variants: ::std::sync::Arc::new(vec![");
            for v in variants {
                let _ = writeln!(out, "{pad}                \"{v}\".to_string(),");
            }
            let _ = writeln!(out, "{pad}            ]),");
            let _ = writeln!(out, "{pad}        }}");
            let _ = writeln!(out, "{pad}    }}");
            let _ = writeln!(out, "{pad}}}");
        }
    }
}

/// An IDL struct or exception: the Rust struct and its field-by-field CDR
/// codec.
fn emit_record(
    out: &mut String,
    model: &Model,
    here: &[String],
    pad: &str,
    name: &str,
    fields: &[(String, RType)],
    exception: bool,
) {
    let rust_name = camel(name);
    let (doc, member) = if exception {
        (format!("IDL exception `{name}` (usable in `raises` clauses)."), "Member")
    } else {
        (format!("IDL struct `{name}`."), "Field")
    };
    let _ = writeln!(out, "{pad}/// {doc}");
    let _ = writeln!(out, "{pad}#[derive(Debug, Clone, PartialEq)]");
    let _ = writeln!(out, "{pad}pub struct {rust_name} {{");
    for (fname, fty) in fields {
        let _ = writeln!(
            out,
            "{pad}    /// {member} `{fname}`.\n{pad}    pub {}: {},",
            snake(fname),
            rust_ty(model, fty, here)
        );
    }
    let _ = writeln!(out, "{pad}}}");
    let _ = writeln!(out, "{pad}impl ::pardis_cdr::CdrCodec for {rust_name} {{");
    let _ = writeln!(out, "{pad}    fn encode(&self, e: &mut ::pardis_cdr::Encoder) {{");
    for (fname, _) in fields {
        let _ = writeln!(
            out,
            "{pad}        ::pardis_cdr::CdrCodec::encode(&self.{}, e);",
            snake(fname)
        );
    }
    let _ = writeln!(out, "{pad}    }}");
    let _ = writeln!(
        out,
        "{pad}    fn decode(d: &mut ::pardis_cdr::Decoder) -> Result<Self, ::pardis_cdr::CdrError> {{"
    );
    let _ = writeln!(out, "{pad}        Ok({rust_name} {{");
    for (fname, _) in fields {
        let _ =
            writeln!(out, "{pad}            {}: ::pardis_cdr::CdrCodec::decode(d)?,", snake(fname));
    }
    let _ = writeln!(out, "{pad}        }})");
    let _ = writeln!(out, "{pad}    }}");
    let _ = writeln!(out, "{pad}    fn type_code() -> ::pardis_cdr::TypeCode {{");
    let _ = writeln!(out, "{pad}        ::pardis_cdr::TypeCode::Struct {{");
    let _ = writeln!(out, "{pad}            name: \"{name}\".to_string(),");
    let _ = writeln!(out, "{pad}            fields: ::std::sync::Arc::new(vec![");
    for (fname, fty) in fields {
        let _ = writeln!(
            out,
            "{pad}                (\"{fname}\".to_string(), <{} as ::pardis_cdr::CdrCodec>::type_code()),",
            rust_ty(model, fty, here)
        );
    }
    let _ = writeln!(out, "{pad}            ]),");
    let _ = writeln!(out, "{pad}        }}");
    let _ = writeln!(out, "{pad}    }}");
    let _ = writeln!(out, "{pad}}}");
}

/// What every emitter inside one interface needs.
struct Cx<'a> {
    model: &'a Model,
    /// The interface's module path.
    here: &'a [String],
    pad: &'a str,
    /// The interface's CamelCase name.
    iface: String,
}

impl Cx<'_> {
    /// The Rust type for an IDL type, as seen from the interface's module.
    fn ty(&self, ty: &RType) -> String {
        rust_ty(self.model, ty, self.here)
    }

    /// Name of the futures struct of `op`'s non-blocking stubs.
    fn futures_name(&self, op: &ROp) -> String {
        format!("{}{}Futures", self.iface, camel(&op.name))
    }
}

/// Per-operation wire layout, shared between proxy and skeleton emission.
struct OpShape<'m> {
    op: &'m ROp,
    /// Scalar (non-distributed) `in`/`inout` params in declaration order.
    scalar_ins: Vec<&'m RParam>,
    /// Distributed params (any direction) in declaration order; a param's
    /// position here is its wire index.
    dseqs: Vec<DSeqParam<'m>>,
    /// Outputs in declaration order: the return value first (if
    /// non-void), then each `out`/`inout` param.
    outputs: Vec<Output<'m>>,
}

/// A distributed param, typed once.
struct DSeqParam<'m> {
    name: &'m str,
    /// Element type.
    elem: &'m RType,
    dir: DSeqDir<'m>,
}

enum DSeqDir<'m> {
    /// `in`, with its declared server-side distribution and its typedef's
    /// pragma mappings.
    In { server_dist: Option<&'m RDist>, pragmas: &'m [PragmaMap] },
    /// `out` (sema rejects `inout` dsequences).
    Out,
}

/// One value the reply carries back.
struct Output<'m> {
    /// The out param's name; `None` for the return value.
    name: Option<&'m str>,
    /// Its type; for a distributed out, the element type.
    ty: &'m RType,
    /// A distributed out (read by dseq ordinal), not a scalar (by slot).
    dseq: bool,
    /// Scalar slot or dseq ordinal.
    index: usize,
}

impl<'m> OpShape<'m> {
    fn new(op: &'m ROp) -> OpShape<'m> {
        let mut shape =
            OpShape { op, scalar_ins: Vec::new(), dseqs: Vec::new(), outputs: Vec::new() };
        if op.ret != RType::Void {
            shape.outputs.push(Output { name: None, ty: &op.ret, dseq: false, index: 0 });
        }
        let (mut scalar_slot, mut dseq_ordinal) = (shape.outputs.len(), 0);
        for p in &op.params {
            if let RType::DSequence { elem, server_dist, pragmas, .. } = &p.ty {
                let dir = if p.dir == RDir::In {
                    DSeqDir::In { server_dist: server_dist.as_ref(), pragmas }
                } else {
                    let index = dseq_ordinal;
                    dseq_ordinal += 1;
                    shape.outputs.push(Output { name: Some(&p.name), ty: elem, dseq: true, index });
                    DSeqDir::Out
                };
                shape.dseqs.push(DSeqParam { name: &p.name, elem, dir });
                continue;
            }
            if p.dir != RDir::Out {
                shape.scalar_ins.push(p);
            }
            if p.dir != RDir::In {
                let index = scalar_slot;
                scalar_slot += 1;
                shape.outputs.push(Output { name: Some(&p.name), ty: &p.ty, dseq: false, index });
            }
        }
        shape
    }

    /// Distributed `in` params in declaration order.
    fn dseq_ins(&self) -> impl Iterator<Item = &DSeqParam<'m>> {
        self.dseqs.iter().filter(|d| matches!(d.dir, DSeqDir::In { .. }))
    }

    /// Rust type of the output tuple; `single` takes distributed outs as
    /// plain `Vec`s (the `_single` stub).
    fn out_tuple(&self, cx: &Cx<'_>, single: bool) -> String {
        if self.outputs.is_empty() {
            return "()".into();
        }
        let parts: Vec<String> = self
            .outputs
            .iter()
            .map(|o| match (o.dseq, single) {
                (false, _) => cx.ty(o.ty),
                (true, false) => format!("::pardis_core::DSequence<{}>", cx.ty(o.ty)),
                (true, true) => format!("Vec<{}>", cx.ty(o.ty)),
            })
            .collect();
        format!("({},)", parts.join(", "))
    }
}

impl Output<'_> {
    /// Field and binding name: `ret` for the return value.
    fn field(&self) -> String {
        self.name.map_or_else(|| "ret".to_string(), snake)
    }

    /// `{from}.scalar{suffix}::<T>(slot)` or `{from}.dseq{suffix}::<E>(ordinal)`.
    fn read(&self, cx: &Cx<'_>, from: &str, suffix: &str) -> String {
        let what = if self.dseq { "dseq" } else { "scalar" };
        format!("{from}.{what}{suffix}::<{}>({}usize)", cx.ty(self.ty), self.index)
    }
}

fn emit_interface(
    out: &mut String,
    model: &Model,
    opts: &CodegenOptions,
    iface: &RInterface,
    pad: &str,
) {
    let cx = Cx { model, here: &iface.path, pad, iface: camel(&iface.name) };
    let shapes: Vec<OpShape<'_>> =
        model.all_ops(&iface.key()).into_iter().map(OpShape::new).collect();
    let proxy_name = format!("{}Proxy", cx.iface);
    let impl_name = format!("{}Impl", cx.iface);
    let skel_name = format!("{}Skel", cx.iface);

    // ----- default server-side distribution policy -----
    let _ = writeln!(
        out,
        "{pad}/// Default server-side distribution policy declared in the IDL for\n\
         {pad}/// interface `{}` (pass to `Poa::activate_spmd`).",
        iface.name
    );
    let _ = writeln!(
        out,
        "{pad}pub fn {}_default_policy() -> ::pardis_core::DistPolicy {{",
        snake(&iface.name)
    );
    let _ = writeln!(out, "{pad}    let mut policy = ::pardis_core::DistPolicy::new();");
    for shape in &shapes {
        for (wire_idx, d) in shape.dseqs.iter().enumerate() {
            let DSeqDir::In { server_dist: Some(dist), .. } = d.dir else { continue };
            let dist = match dist {
                RDist::Block => "::pardis_core::Distribution::Block".to_string(),
                RDist::Cyclic => "::pardis_core::Distribution::Cyclic".to_string(),
                RDist::Concentrated(k) => format!("::pardis_core::Distribution::Concentrated({k})"),
                RDist::BlockCyclic(b) => format!("::pardis_core::Distribution::BlockCyclic({b})"),
            };
            let _ =
                writeln!(out, "{pad}    policy.set(\"{}\", {wire_idx}u32, {dist});", shape.op.name);
        }
    }
    let _ = writeln!(out, "{pad}    policy");
    let _ = writeln!(out, "{pad}}}");

    // ----- proxy -----
    let _ = writeln!(
        out,
        "{pad}/// Client proxy for IDL interface `{}`.\n\
         {pad}pub struct {proxy_name} {{\n\
         {pad}    inner: ::pardis_core::Proxy,\n\
         {pad}}}",
        iface.name
    );
    let _ = writeln!(out, "{pad}impl {proxy_name} {{");
    let _ = writeln!(
        out,
        "{pad}    /// Collective bind: the parallel client acts as one entity.\n\
         {pad}    pub fn spmd_bind(client: &::pardis_core::ClientThread, name: &str) -> ::pardis_core::OrbResult<Self> {{\n\
         {pad}        Ok(Self {{ inner: client.spmd_bind(name)? }})\n\
         {pad}    }}\n\
         {pad}    /// Per-thread bind.\n\
         {pad}    pub fn bind(client: &::pardis_core::ClientThread, name: &str) -> ::pardis_core::OrbResult<Self> {{\n\
         {pad}        Ok(Self {{ inner: client.bind(name)? }})\n\
         {pad}    }}\n\
         {pad}    /// Wrap an existing binding (narrowing).\n\
         {pad}    pub fn from_proxy(inner: ::pardis_core::Proxy) -> Self {{\n\
         {pad}        Self {{ inner }}\n\
         {pad}    }}\n\
         {pad}    /// The untyped binding.\n\
         {pad}    pub fn proxy(&self) -> &::pardis_core::Proxy {{\n\
         {pad}        &self.inner\n\
         {pad}    }}"
    );
    for shape in &shapes {
        for kind in StubKind::ALL.into_iter().filter(|k| k.applies(&cx, shape, opts)) {
            if shape.op.oneway {
                emit_stub(out, &cx, shape, kind, Mode::Oneway);
                continue;
            }
            emit_stub(out, &cx, shape, kind, Mode::Blocking);
            if kind != StubKind::Single {
                emit_stub(out, &cx, shape, kind, Mode::NonBlocking);
            }
        }
    }
    let _ = writeln!(out, "{pad}}}");

    // ----- futures structs -----
    for shape in shapes.iter().filter(|s| !s.op.oneway) {
        emit_futures_struct(out, &cx, shape);
    }

    // ----- skeleton -----
    let _ = writeln!(
        out,
        "{pad}/// Implementation trait for IDL interface `{}` — implement this and\n\
         {pad}/// wrap it in [`{skel_name}`] to activate.",
        iface.name
    );
    let _ = writeln!(out, "{pad}pub trait {impl_name}: Send + Sync + 'static {{");
    for shape in &shapes {
        let op = shape.op;
        let mut args = vec!["&self".to_string(), "ctx: &::pardis_core::ServantCtx".to_string()];
        for p in &shape.scalar_ins {
            args.push(format!("{}: {}", snake(&p.name), cx.ty(&p.ty)));
        }
        for d in shape.dseq_ins() {
            args.push(format!("{}: ::pardis_core::DSequence<{}>", snake(d.name), cx.ty(d.elem)));
        }
        let err_ty = if op.raises.is_empty() { "String" } else { "::pardis_core::Raised" };
        let _ = writeln!(out, "{pad}    /// IDL operation `{}`.", op.name);
        if !op.raises.is_empty() {
            let raised: Vec<String> =
                op.raises.iter().map(|r| named_path(model, r, cx.here)).collect();
            let _ = writeln!(
                out,
                "{pad}    /// Raises {} (return `Err(exc.into())`).",
                raised.join(", ")
            );
        }
        let _ = writeln!(
            out,
            "{pad}    fn {}({}) -> Result<{}, {err_ty}>;",
            snake(&op.name),
            args.join(", "),
            shape.out_tuple(&cx, false)
        );
    }
    let _ = writeln!(out, "{pad}}}");

    let _ = writeln!(
        out,
        "{pad}/// Servant adapter: decodes requests and calls a [`{impl_name}`].\n\
         {pad}pub struct {skel_name}<T: {impl_name}>(pub T);"
    );
    let _ = writeln!(out, "{pad}impl<T: {impl_name}> ::pardis_core::Servant for {skel_name}<T> {{");
    let _ = writeln!(out, "{pad}    fn interface(&self) -> &str {{");
    let _ = writeln!(out, "{pad}        \"{}\"", flat_key(&iface.path, &iface.name));
    let _ = writeln!(out, "{pad}    }}");
    let _ = writeln!(
        out,
        "{pad}    fn dispatch(&self, req: ::pardis_core::ServerRequest<'_>) -> Result<::pardis_core::ServerReply, String> {{"
    );
    let _ = writeln!(out, "{pad}        match req.op {{");
    for shape in &shapes {
        let op = shape.op;
        let _ = writeln!(out, "{pad}            \"{}\" => {{", op.name);
        let mut call_args = vec!["req.ctx".to_string()];
        for (slot, p) in shape.scalar_ins.iter().enumerate() {
            let _ = writeln!(
                out,
                "{pad}                let {}: {} = req.scalar({slot}usize).map_err(|e| e.to_string())?;",
                snake(&p.name),
                cx.ty(&p.ty)
            );
            call_args.push(snake(&p.name));
        }
        for (ordinal, d) in shape.dseq_ins().enumerate() {
            let _ = writeln!(
                out,
                "{pad}                let {}: ::pardis_core::DSequence<{}> = req.dseq({ordinal}usize).map_err(|e| e.to_string())?;",
                snake(d.name),
                cx.ty(d.elem)
            );
            call_args.push(snake(d.name));
        }
        if op.raises.is_empty() {
            let _ = writeln!(
                out,
                "{pad}                let out = self.0.{}({})?;",
                snake(&op.name),
                call_args.join(", ")
            );
        } else {
            let _ = writeln!(
                out,
                "{pad}                let out = match self.0.{}({}) {{",
                snake(&op.name),
                call_args.join(", ")
            );
            let _ = writeln!(out, "{pad}                    Ok(out) => out,");
            let _ = writeln!(
                out,
                "{pad}                    Err(raised) => return Ok(::pardis_core::ServerReply::raising(raised)),"
            );
            let _ = writeln!(out, "{pad}                }};");
        }
        let _ =
            writeln!(out, "{pad}                let mut rep = ::pardis_core::ServerReply::new();");
        for (i, o) in shape.outputs.iter().enumerate() {
            if o.dseq {
                let _ = writeln!(out, "{pad}                rep.push_dseq(out.{i});");
            } else {
                let _ = writeln!(out, "{pad}                rep.push_scalar(&out.{i});");
            }
        }
        if shape.outputs.is_empty() {
            let _ = writeln!(out, "{pad}                let _ = out;");
        }
        let _ = writeln!(out, "{pad}                Ok(rep)");
        let _ = writeln!(out, "{pad}            }}");
    }
    let _ = writeln!(
        out,
        "{pad}            other => Err(format!(\"interface {} has no operation {{other:?}}\")),",
        iface.name
    );
    let _ = writeln!(out, "{pad}        }}");
    let _ = writeln!(out, "{pad}    }}");
    let _ = writeln!(out, "{pad}}}");
}

/// How an operation's distributed arguments are taken.
#[derive(PartialEq, Clone, Copy)]
enum StubKind {
    /// SPMD stub over `DSequence` views.
    Distributed,
    /// Whole-sequence stub for single clients.
    Single,
    /// `-pooma`: POOMA-annotated in-args taken as `Field2D`.
    Pooma,
    /// `-hpcxx`: HPC++-annotated in-args taken as `DistVector`.
    Hpcxx,
}

impl StubKind {
    /// Every kind, in the order a proxy lists its stubs.
    const ALL: [StubKind; 4] =
        [StubKind::Distributed, StubKind::Single, StubKind::Pooma, StubKind::Hpcxx];

    /// Does `shape`'s operation get this kind of stub?
    fn applies(self, cx: &Cx<'_>, shape: &OpShape<'_>, opts: &CodegenOptions) -> bool {
        let enabled = match self {
            StubKind::Distributed => return true,
            StubKind::Single => return !shape.dseqs.is_empty(),
            StubKind::Pooma => opts.pooma,
            StubKind::Hpcxx => opts.hpcxx,
        };
        enabled && shape.dseqs.iter().any(|d| self.native(cx, d).is_some())
    }

    /// The native container this stub takes `in` param `d` as, when `d`'s
    /// typedef carries this kind's pragma mapping.
    fn native(self, cx: &Cx<'_>, d: &DSeqParam<'_>) -> Option<String> {
        let DSeqDir::In { pragmas, .. } = d.dir else { return None };
        let (system, native) = match self {
            StubKind::Pooma => ("POOMA", "::pooma_rs::Field2D".to_string()),
            StubKind::Hpcxx => ("HPC++", format!("::pstl_rs::DistVector<{}>", cx.ty(d.elem))),
            StubKind::Distributed | StubKind::Single => return None,
        };
        pragmas.iter().any(|p| p.system == system).then_some(native)
    }

    /// The stub name's suffix and the blocking stub's doc line.
    fn suffix_and_doc(self) -> (&'static str, &'static str) {
        match self {
            StubKind::Distributed => {
                ("", "Blocking invocation (SPMD stub: distributed arguments are this thread's views).")
            }
            StubKind::Single => (
                "_single",
                "Blocking invocation, non-distributed stub: whole sequences, for single clients (§3.1).",
            ),
            StubKind::Pooma => {
                ("_pooma", "Blocking invocation marshaling directly from POOMA fields (`-pooma`).")
            }
            StubKind::Hpcxx => (
                "_hpcxx",
                "Blocking invocation marshaling directly from HPC++ PSTL distributed vectors (`-hpcxx`).",
            ),
        }
    }
}

/// How a stub waits for its operation.
#[derive(PartialEq, Clone, Copy)]
enum Mode {
    /// Returns the outputs.
    Blocking,
    /// Returns their futures (`_nb`, §3.3).
    NonBlocking,
    /// A `oneway` operation: returns once sent.
    Oneway,
}

/// One proxy stub: doc line, signature, the pragma pre-conversions, the
/// call chain, then the tail `mode` calls for.
fn emit_stub(out: &mut String, cx: &Cx<'_>, shape: &OpShape<'_>, kind: StubKind, mode: Mode) {
    let (op, pad) = (shape.op, cx.pad);
    let single = kind == StubKind::Single;
    let mut args = vec!["&self".to_string()];
    let mut prelude = String::new();
    // Scalars and dseqs must each be chained in declaration order; the
    // relative interleaving of scalars and dseqs does not matter on the
    // wire, so chain scalars first for readability.
    let mut chain = format!("self.inner.call(\"{}\")", op.name);
    for p in &shape.scalar_ins {
        let name = snake(&p.name);
        args.push(format!("{name}: &{}", cx.ty(&p.ty)));
        let _ = write!(chain, ".arg({name})");
    }
    for d in &shape.dseqs {
        let name = snake(d.name);
        match (&d.dir, kind.native(cx, d)) {
            (DSeqDir::In { .. }, _) if single => {
                args.push(format!("{name}: Vec<{}>", cx.ty(d.elem)));
                let _ = write!(chain, ".dseq_in_full({name})");
            }
            (DSeqDir::In { .. }, Some(native)) => {
                args.push(format!("{name}: &{native}"));
                let _ = writeln!(prelude, "{pad}        let {name}_ds = {name}.to_dseq();");
                let _ = write!(chain, ".dseq_in(&{name}_ds)");
            }
            (DSeqDir::In { .. }, None) => {
                args.push(format!("{name}: &::pardis_core::DSequence<{}>", cx.ty(d.elem)));
                let _ = write!(chain, ".dseq_in({name})");
            }
            (DSeqDir::Out, _) if single => {
                chain.push_str(".dseq_out(::pardis_core::Distribution::Concentrated(0usize))");
            }
            (DSeqDir::Out, _) => {
                args.push(format!("{name}_dist: ::pardis_core::Distribution"));
                let _ = write!(chain, ".dseq_out({name}_dist)");
            }
        }
    }

    let (suffix, doc) = kind.suffix_and_doc();
    let (suffix, ret_ty) = match mode {
        Mode::Blocking => (suffix.to_string(), shape.out_tuple(cx, single)),
        Mode::Oneway => (suffix.to_string(), "()".to_string()),
        Mode::NonBlocking => (format!("{suffix}_nb"), cx.futures_name(op)),
    };
    if mode == Mode::NonBlocking {
        let _ = writeln!(
            out,
            "{pad}    /// Non-blocking invocation: returns immediately with futures of the\n\
             {pad}    /// out arguments and return value (§3.3)."
        );
    } else {
        let _ = writeln!(out, "{pad}    /// {doc}");
    }
    let _ = writeln!(
        out,
        "{pad}    pub fn {}{suffix}({}) -> ::pardis_core::OrbResult<{ret_ty}> {{",
        if suffix.is_empty() { snake(&op.name) } else { snake_raw(&op.name) },
        args.join(", ")
    );
    out.push_str(&prelude);
    let _ = writeln!(out, "{pad}        let call = {chain};");

    match mode {
        Mode::Oneway => {
            let _ = writeln!(out, "{pad}        call.invoke_oneway()");
        }
        Mode::Blocking => {
            let _ = writeln!(out, "{pad}        let reply = call.invoke()?;");
            if shape.outputs.is_empty() {
                let _ = writeln!(out, "{pad}        let _ = reply;");
                let _ = writeln!(out, "{pad}        Ok(())");
            } else {
                let reads: Vec<String> = shape
                    .outputs
                    .iter()
                    .map(|o| {
                        let take = if single && o.dseq { ".take_local()" } else { "" };
                        format!("{}?{take}", o.read(cx, "reply", ""))
                    })
                    .collect();
                let _ = writeln!(out, "{pad}        Ok(({},))", reads.join(", "));
            }
        }
        Mode::NonBlocking => {
            let _ = writeln!(out, "{pad}        let handle = call.invoke_nb()?;");
            let mut fields: Vec<String> = shape
                .outputs
                .iter()
                .map(|o| format!("{}: {}", o.field(), o.read(cx, "handle", "_future")))
                .collect();
            fields.push("handle".to_string());
            let _ = writeln!(
                out,
                "{pad}        Ok({} {{ {} }})",
                cx.futures_name(op),
                fields.join(", ")
            );
        }
    }
    let _ = writeln!(out, "{pad}    }}");
}

fn emit_futures_struct(out: &mut String, cx: &Cx<'_>, shape: &OpShape<'_>) {
    let (op, pad) = (shape.op, cx.pad);
    let fname = cx.futures_name(op);
    let _ = writeln!(
        out,
        "{pad}/// Futures of `{}::{}`; all resolve together when the server completes.",
        cx.iface, op.name
    );
    let _ = writeln!(out, "{pad}pub struct {fname} {{");
    let _ = writeln!(out, "{pad}    /// Completion handle (poll or cancel).");
    let _ = writeln!(out, "{pad}    pub handle: ::pardis_core::InvocationHandle,");
    for o in &shape.outputs {
        let (what, future) = match (o.name, o.dseq) {
            (None, _) => ("the return value".to_string(), "PFuture"),
            (Some(name), false) => (format!("out argument `{name}`"), "PFuture"),
            (Some(name), true) => (format!("distributed out argument `{name}`"), "DSeqFuture"),
        };
        let _ = writeln!(out, "{pad}    /// Future of {what}.");
        let _ =
            writeln!(out, "{pad}    pub {}: ::pardis_core::{future}<{}>,", o.field(), cx.ty(o.ty));
    }
    let _ = writeln!(out, "{pad}}}");
    let _ = writeln!(out, "{pad}impl {fname} {{");
    let _ = writeln!(out, "{pad}    /// Have all the futures resolved?");
    let _ = writeln!(out, "{pad}    pub fn resolved(&self) -> bool {{");
    let _ = writeln!(out, "{pad}        self.handle.resolved()");
    let _ = writeln!(out, "{pad}    }}");
    let _ = writeln!(out, "{pad}}}");
}
