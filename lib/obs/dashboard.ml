(* The live dashboard: one self-contained HTML page over the flight
   recorder.

   Everything is inline — styles, script, SVG — so the page works from
   `curl http://127.0.0.1:PORT/dashboard > dash.html` as well as live,
   with zero external assets (the monitor serves operators on loopback,
   possibly on machines with no internet).  The page polls the
   monitor's own JSON routes — /range for each sparkline panel, /alerts
   and /tail for the tables — and renders inline SVG polylines
   client-side.  The server ships no data in the page itself, so this
   string is a constant. *)

(* Panels: title, unit label, and the /range series to overlay.  scale
   divides raw values before display (ns -> ms).  Kept as data and
   rendered into the page's script; nothing else reads it (the shell's
   `:top` picks its own sparklines). *)
let panels =
  [
    ( "served latency (ms)",
      [
        ("srv_request_ns", "p99", 1e6, "#e4572e", "p99");
        ("srv_request_ns", "p50", 1e6, "#4c9f70", "p50");
      ] );
    ("request rate (/s)", [ ("srv_requests_total", "rate", 1., "#2274a5", "") ]);
    ("shed rate (/s)", [ ("srv_shed_total", "rate", 1., "#e4572e", "") ]);
    ("queue depth", [ ("srv_queue_depth", "avg", 1., "#2274a5", "") ]);
    ( "engine latency (ms)",
      [ ("engine_query_ns", "p99", 1e6, "#815ac0", "p99") ] );
    ( "max resident pages",
      [ ("srv_engine_max_resident_pages", "max", 1., "#4c9f70", "") ] );
    ("gc heap (Mwords)", [ ("gc_heap_words", "avg", 1e6, "#815ac0", "") ]);
    ( "tail-retained spans",
      [ ("trace_tail_retained_spans", "avg", 1., "#b07d2b", "") ] );
  ]

let panel_json () =
  Json.to_string
    (Json.Arr
       (List.map
          (fun (title, series) ->
            Json.Obj
              [
                ("title", Json.Str title);
                ( "series",
                  Json.Arr
                    (List.map
                       (fun (metric, agg, scale, color, label) ->
                         Json.Obj
                           [
                             ("metric", Json.Str metric);
                             ("agg", Json.Str agg);
                             ("scale", Json.Num scale);
                             ("color", Json.Str color);
                             ("label", Json.Str label);
                           ])
                       series) );
              ])
          panels))

let page () =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    {html|<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>ndq flight recorder</title>
<style>
  :root { color-scheme: light dark; }
  body { font: 13px/1.45 ui-monospace, SFMono-Regular, Menlo, monospace;
         margin: 1.2em; background: #fafafa; color: #222; }
  @media (prefers-color-scheme: dark) {
    body { background: #14161a; color: #d8d8d8; }
    .panel { background: #1c2026 !important; border-color: #2a2f37 !important; }
    table { border-color: #2a2f37 !important; }
    td, th { border-color: #2a2f37 !important; }
  }
  h1 { font-size: 16px; margin: 0 0 .2em 0; }
  #meta { color: #888; margin-bottom: 1em; }
  #grid { display: grid; grid-template-columns: repeat(auto-fill, minmax(300px, 1fr));
          gap: 10px; }
  .panel { background: #fff; border: 1px solid #ddd; border-radius: 6px;
           padding: 8px 10px; }
  .panel h2 { font-size: 12px; font-weight: 600; margin: 0 0 4px 0; }
  .panel .now { float: right; font-weight: 400; color: #888; }
  svg { width: 100%; height: 64px; display: block; }
  .tables { display: grid; grid-template-columns: repeat(auto-fill, minmax(460px, 1fr));
            gap: 10px; margin-top: 1em; }
  table { width: 100%; border-collapse: collapse; border: 1px solid #ddd;
          font-size: 12px; }
  caption { text-align: left; font-weight: 600; padding: 4px 0; }
  td, th { border: 1px solid #ddd; padding: 2px 6px; text-align: left; }
  th { font-weight: 600; }
  .firing { color: #e4572e; font-weight: 600; }
  .pending { color: #b07d2b; }
  .resolved, .ok { color: #4c9f70; }
  a { color: inherit; }
</style>
</head>
<body>
<h1>ndq flight recorder</h1>
<div id="meta">loading&hellip;</div>
<div id="grid"></div>
<div class="tables">
  <table id="alerts"><caption>alerts</caption></table>
  <table id="tail"><caption>tail-sampled traces</caption></table>
</div>
<script>
"use strict";
const PANELS = |html};
  Buffer.add_string b (panel_json ());
  Buffer.add_string b
    {html|;
const WINDOW_S = 300, STEP_S = 2, W = 300, H = 64, PAD = 2;

function fmt(v) {
  if (v === null || v === undefined || !isFinite(v)) return "-";
  const a = Math.abs(v);
  if (a >= 1000) return v.toFixed(0);
  if (a >= 10) return v.toFixed(1);
  if (a >= 0.01 || a === 0) return v.toFixed(2);
  return v.toExponential(1);
}

// One polyline per series; null points split the line into segments.
function sparkline(seriesData) {
  let lo = Infinity, hi = -Infinity;
  for (const s of seriesData)
    for (const [, v] of s.points)
      if (v !== null) { lo = Math.min(lo, v); hi = Math.max(hi, v); }
  if (!isFinite(lo)) return '<svg viewBox="0 0 ' + W + ' ' + H + '"></svg>';
  if (hi - lo < 1e-12) { hi += 1; lo -= (lo > 0.5 ? 0.5 : lo); }
  const n = Math.max(...seriesData.map(s => s.points.length), 2);
  const x = i => PAD + i * (W - 2 * PAD) / (n - 1);
  const y = v => H - PAD - (v - lo) * (H - 2 * PAD) / (hi - lo);
  let out = '<svg viewBox="0 0 ' + W + ' ' + H + '" preserveAspectRatio="none">';
  for (const s of seriesData) {
    let seg = [];
    const flush = () => {
      if (seg.length > 1)
        out += '<polyline fill="none" stroke="' + s.color +
               '" stroke-width="1.5" points="' + seg.join(' ') + '"/>';
      else if (seg.length === 1)
        out += '<circle cx="' + seg[0].split(',')[0] + '" cy="' +
               seg[0].split(',')[1] + '" r="1.5" fill="' + s.color + '"/>';
      seg = [];
    };
    s.points.forEach(([, v], i) => {
      if (v === null) flush();
      else seg.push(x(i).toFixed(1) + ',' + y(v).toFixed(1));
    });
    flush();
  }
  out += '<text x="' + PAD + '" y="10" font-size="9" fill="#999">' +
         fmt(hi) + '</text>';
  out += '<text x="' + PAD + '" y="' + (H - 3) + '" font-size="9" fill="#999">' +
         fmt(lo) + '</text>';
  return out + '</svg>';
}

async function rangeOf(s) {
  const url = '/range?metric=' + encodeURIComponent(s.metric) +
              '&agg=' + s.agg + '&window=' + WINDOW_S + '&step=' + STEP_S;
  const r = await fetch(url);
  if (!r.ok) return { color: s.color, points: [], label: s.label, last: null };
  const j = await r.json();
  const points = j.points.map(([t, v]) => [t, v === null ? null : v / s.scale]);
  let last = null;
  for (const [, v] of points) if (v !== null) last = v;
  return { color: s.color, points, label: s.label, last };
}

function panelDiv(i) {
  let d = document.getElementById('panel' + i);
  if (!d) {
    d = document.createElement('div');
    d.className = 'panel';
    d.id = 'panel' + i;
    document.getElementById('grid').appendChild(d);
  }
  return d;
}

async function drawPanels() {
  await Promise.all(PANELS.map(async (p, i) => {
    const data = await Promise.all(p.series.map(rangeOf));
    const now = data.map(s =>
      (s.label ? s.label + '=' : '') + fmt(s.last)).join('  ');
    panelDiv(i).innerHTML =
      '<h2>' + p.title + '<span class="now">' + now + '</span></h2>' +
      sparkline(data);
  }));
}

function cell(tag, text, cls) {
  const esc = String(text).replace(/&/g, '&amp;').replace(/</g, '&lt;');
  return '<' + tag + (cls ? ' class="' + cls + '"' : '') + '>' + esc +
         '</' + tag + '>';
}

async function drawAlerts() {
  const r = await fetch('/alerts');
  if (!r.ok) return;
  const j = await r.json();
  let html = '<caption>alerts</caption><tr>' +
    ['rule', 'state', 'value', 'exemplar'].map(h => cell('th', h)).join('') +
    '</tr>';
  for (const a of (j.rules || [])) {
    const st = a.state || '?';
    html += '<tr>' + cell('td', a.name) + cell('td', st, st) +
            cell('td', fmt(a.value)) +
            (a.exemplar_trace_id
             ? '<td><a href="/trace/' + a.exemplar_trace_id + '">' +
               a.exemplar_trace_id + '</a></td>'
             : cell('td', '-')) + '</tr>';
  }
  document.getElementById('alerts').innerHTML = html;
}

async function drawTail() {
  const r = await fetch('/tail');
  if (!r.ok) return;
  const j = await r.json();
  let html = '<caption>tail-sampled traces (' + (j.retained_spans || 0) +
    '/' + (j.budget_spans || 0) + ' spans)</caption><tr>' +
    ['trace', 'reason', 'origin', 'wall ms', 'spans'].map(h => cell('th', h))
      .join('') + '</tr>';
  for (const t of (j.traces || []).slice(0, 20)) {
    html += '<tr><td><a href="/trace/' + t.trace_id + '">' + t.trace_id +
            '</a></td>' + cell('td', t.reason) + cell('td', t.origin) +
            cell('td', fmt(t.wall_ns / 1e6)) + cell('td', t.spans) + '</tr>';
  }
  document.getElementById('tail').innerHTML = html;
}

async function tick() {
  if (document.hidden) return;
  try {
    await Promise.all([drawPanels(), drawAlerts(), drawTail()]);
    document.getElementById('meta').textContent =
      'window ' + WINDOW_S + 's · step ' + STEP_S +
      's · refreshed ' + new Date().toLocaleTimeString();
  } catch (e) {
    document.getElementById('meta').textContent = 'refresh failed: ' + e;
  }
}

tick();
setInterval(tick, 2000);
</script>
</body>
</html>
|html};
  Buffer.contents b
