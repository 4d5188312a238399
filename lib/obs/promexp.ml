(* OpenMetrics text exposition over the metrics registry: the one
   format /metrics serves.

   The registry's internal names are already exposition-friendly, but
   nothing forces callers' label values to be, so this module owns the
   sanitization rules: metric names match [a-zA-Z_:][a-zA-Z0-9_:]*,
   label names match [a-zA-Z_][a-zA-Z0-9_]*, offending characters
   become '_' and a leading digit gets a '_' prefix.  Label values are
   escaped per the exposition grammar (backslash, quote, newline).

   Histograms export the standard cumulative form — one
   [name_bucket{le="..."}] series per power-of-two boundary up to the
   highest populated bucket, an [le="+Inf"] bucket equal to the count,
   plus [name_sum] and [name_count] — so a Prometheus scraper can
   recompute quantiles with histogram_quantile().  Bucket lines carry
   the bucket's exemplar, and the page ends with [# EOF]. *)

let sanitize ~colon s =
  if s = "" then "_"
  else begin
    let b = Bytes.of_string s in
    Bytes.iteri
      (fun i c ->
        let ok =
          (c >= 'a' && c <= 'z')
          || (c >= 'A' && c <= 'Z')
          || c = '_'
          || (colon && c = ':')
          || (i > 0 && c >= '0' && c <= '9')
        in
        if not ok then Bytes.set b i '_')
      b;
    (* a leading digit was rewritten to '_' above, so the result always
       starts with a legal first character *)
    Bytes.to_string b
  end

let sanitize_name s = sanitize ~colon:true s
let sanitize_label s = sanitize ~colon:false s

(* Label-value escaping per the exposition grammar. *)
let escape_value s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* HELP text: escape backslash and newline only (quotes are legal). *)
let escape_help s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Sample values: integral floats render without a fraction, everything
   else with enough digits to round-trip. *)
let fmt_value v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Bucket boundaries are exact powers of two; print them in full. *)
let fmt_bound v = Printf.sprintf "%.0f" v

let labels_text = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (sanitize_label k) (escape_value v))
             labels)
      ^ "}"

(* labels plus an [le] bound, for histogram bucket series *)
let labels_le labels le =
  labels_text (labels @ [ ("le", le) ])

let content_type_openmetrics =
  "application/openmetrics-text; version=1.0.0; charset=utf-8"

(* OpenMetrics exemplar suffix: [# {trace_id="..."} value timestamp].
   The exemplar rides the bucket its observation landed in, so its
   value is always within the bucket's range as the spec requires. *)
let exemplar_text (ex : Metrics.exemplar) =
  Printf.sprintf " # {trace_id=\"%s\"} %s %.3f"
    (escape_value ex.Metrics.ex_trace_id)
    (fmt_value ex.Metrics.ex_value)
    ex.Metrics.ex_ts

let to_openmetrics registry =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  List.iter
    (fun (f : Metrics.family_view) ->
      let name = sanitize_name f.Metrics.fv_name in
      if f.Metrics.fv_help <> "" then
        line "# HELP %s %s" name (escape_help f.Metrics.fv_help);
      line "# TYPE %s %s" name f.Metrics.fv_kind;
      List.iter
        (fun (labels, v) ->
          match v with
          | Metrics.V_counter c -> line "%s%s %d" name (labels_text labels) c
          | Metrics.V_gauge g ->
              line "%s%s %s" name (labels_text labels) (fmt_value g)
          | Metrics.V_histogram h ->
              let cum = h.Metrics.hv_cumulative in
              (* the highest populated bucket bounds the useful series *)
              let top = ref 0 in
              Array.iteri
                (fun i c -> if (i = 0 && c > 0) || c > cum.(max 0 (i - 1)) then top := i)
                cum;
              for i = 0 to !top do
                let ex =
                  match List.assoc_opt i h.Metrics.hv_exemplars with
                  | Some e -> exemplar_text e
                  | None -> ""
                in
                line "%s_bucket%s %d%s" name
                  (labels_le labels (fmt_bound (Metrics.bucket_upper i)))
                  cum.(i) ex
              done;
              line "%s_bucket%s %d" name (labels_le labels "+Inf")
                h.Metrics.hv_count;
              line "%s_sum%s %s" name (labels_text labels)
                (fmt_value h.Metrics.hv_sum);
              line "%s_count%s %d" name (labels_text labels)
                h.Metrics.hv_count)
        f.Metrics.fv_series)
    (Metrics.export registry);
  Buffer.add_string b "# EOF\n";
  Buffer.contents b
