(* End-to-end tests of the ndqsh shell binary: parse, evaluate, update,
   explain and LDIF round-trip through the real command-line surface. *)

(* Under `dune runtest` the cwd is _build/default/test; resolve the shell
   binary relative to that, with fallbacks for manual invocations. *)
let exe =
  List.find_opt Sys.file_exists
    [ "../bin/ndqsh.exe"; "_build/default/bin/ndqsh.exe"; "bin/ndqsh.exe" ]
  |> Option.value ~default:"../bin/ndqsh.exe"

let run args =
  let out = Filename.temp_file "ndqsh" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (code, text)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec loop i = i + n <= h && (String.sub hay i n = needle || loop (i + 1)) in
  loop 0

let check_contains text needles =
  List.iter
    (fun needle ->
      if not (contains text needle) then
        Alcotest.failf "expected output to contain %S; got:@.%s" needle text)
    needles

let test_query_roundtrip () =
  let code, text =
    run
      [ "-d"; "figure12"; "-e"; "( ? sub ? SourcePort=25)"; "-e"; ":size" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains text
    [ "loaded \"figure12\": 23 entries"; "[L0] 1 entries"; "TPName=smtp";
      "23 entries" ]

let test_ldap_and_levels () =
  let code, text =
    run
      [
        "-d"; "figure12";
        "-e"; "ldap:///dc=com?sub?(&(objectClass=SLAPolicyRules)(SLARulePriority<=1))";
        "-e"; "(c ( ? sub ? objectClass=organizationalUnit) ( ? sub ? \
               objectClass=SLAPolicyRules))";
      ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains text [ "SLAPolicyName=gold"; "[L1]" ]

let test_updates_and_explain () =
  let code, text =
    run
      [
        "-d"; "figure11";
        "-e"; ":add dn: uid=tova, ou=userProfiles, dc=research, dc=att, \
               dc=com ; uid: tova ; surName: milo ; objectClass: \
               inetOrgPerson ; objectClass: TOPSSubscriber";
        "-e"; "( ? sub ? surName=milo)";
        "-e"; ":explain (p ( ? sub ? objectClass=callAppearance) ( ? sub ? \
               objectClass=QHP))";
        "-e"; ":delete uid=tova, ou=userProfiles, dc=research, dc=att, dc=com";
        "-e"; ":size";
      ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains text
    [ "ok (12 entries)"; "uid=tova"; "rows est="; "io est="; "11 entries" ]

let test_bad_input_reported () =
  let code, text =
    run [ "-d"; "figure11"; "-e"; "(nonsense"; "-e"; ":entry dc=nosuch" ]
  in
  Alcotest.(check int) "still exit 0" 0 code;
  check_contains text [ "parse error"; "no entry dc=nosuch" ]

let test_ldif_save_load () =
  let path = Filename.temp_file "ndq_cli" ".ldif" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let code, text =
        run [ "-d"; "figure12"; "-e"; ":save " ^ path ]
      in
      Alcotest.(check int) "save ok" 0 code;
      check_contains text [ "wrote 23 entries" ];
      let code, text =
        run [ "-d"; "figure11"; "-e"; ":load " ^ path; "-e"; ":size" ]
      in
      Alcotest.(check int) "load ok" 0 code;
      check_contains text [ "loaded 23 entries"; "23 entries" ])

let test_metrics_and_trace () =
  let code, text =
    run
      [
        "-d"; "figure12";
        "-e"; ":trace on";
        "-e"; "( ? sub ? SourcePort=25)";
        "-e"; ":trace last";
        "-e"; ":metrics";
        "-e"; ":metrics json";
        "-e"; ":stats reset";
      ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains text
    [
      "tracing on";
      (* the span tree: root query span with parse and execute children,
         each carrying wall-clock time and an I/O delta *)
      "query ( ? sub ? SourcePort=25)";
      "parse";
      "execute";
      "reads=";
      (* text exporter: engine counters and the latency histogram *)
      "engine_queries_total 1";
      "engine_query_ns count=1";
      "p99=";
      (* JSON-lines exporter *)
      "{\"name\":\"engine_queries_total\",\"type\":\"counter\"";
      "\"value\":1}";
      "io counters, metrics and traces reset";
    ]

let test_journal_slowlog_replay () =
  let path = Filename.temp_file "ndq_cli_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let code, text =
        run
          [
            "-d"; "figure12";
            "-e"; ":tail threshold 0";
            "-e"; ":journal " ^ path;
            "-e"; "( ? sub ? SourcePort=25)";
            "-e"; "( ? sub ? objectClass=SLAPolicyRules)";
            "-e"; ":journal off";
            "-e"; ":slowlog 2";
            "-e"; ":replay " ^ path;
          ]
      in
      Alcotest.(check int) "exit 0" 0 code;
      check_contains text
        [
          "slow-query threshold = 0ms";
          "journaling to " ^ path;
          "journal off";
          (* slowlog: one-line summaries plus the promoted captures *)
          "plan=";
          "spans:";
          "execute";
          "plan:";
          (* acceptance: replaying a journal against the same build
             reports zero result-count diffs *)
          "replayed 2 queries from " ^ path
          ^ ": 0 result-count diffs, 0 io diffs, 0 errors";
        ];
      (* the journal file itself is JSON lines with one event per query *)
      let lines =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check int) "one JSON line per query" 2 (List.length lines);
      List.iter
        (fun l ->
          check_contains l
            [ "\"seq\":"; "\"fingerprint\":"; "\"ops\":"; "\"outcome\":\"ok\"" ])
        lines)

let test_generated_directories () =
  List.iter
    (fun kind ->
      let code, text =
        run [ "-d"; kind; "--size"; "600"; "-e"; ":size"; "-e"; ":roots" ]
      in
      Alcotest.(check int) (kind ^ " exit 0") 0 code;
      check_contains text [ "entries" ])
    [ "random"; "qos"; "tops" ]

let () =
  if not (Sys.file_exists exe) then begin
    print_endline "ndqsh.exe not built; skipping CLI tests";
    exit 0
  end;
  Alcotest.run "cli"
    [
      ( "ndqsh",
        [
          Alcotest.test_case "query roundtrip" `Quick test_query_roundtrip;
          Alcotest.test_case "ldap + levels" `Quick test_ldap_and_levels;
          Alcotest.test_case "updates + explain" `Quick test_updates_and_explain;
          Alcotest.test_case "bad input reported" `Quick test_bad_input_reported;
          Alcotest.test_case "ldif save/load" `Quick test_ldif_save_load;
          Alcotest.test_case "metrics + trace" `Quick test_metrics_and_trace;
          Alcotest.test_case "journal + slowlog + replay" `Quick
            test_journal_slowlog_replay;
          Alcotest.test_case "generated directories" `Quick
            test_generated_directories;
        ] );
    ]
