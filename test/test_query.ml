(* Tests for atomic filters, the query AST, language classification and
   the parser/printer pair (Figures 7-10). *)

(* --- Atomic filters --------------------------------------------------------- *)

let entry attrs = Entry.make (Dn.of_string "id=0") (("id", Value.Int 0) :: attrs)

let test_filter_matching () =
  let e =
    entry
      [
        ("surName", Value.Str "jagadish");
        ("priority", Value.Int 2);
        ("priority", Value.Int 7);
        ("ref", Value.Dn (Dn.of_string "dc=com"));
        (Schema.object_class, Value.Str "person");
      ]
  in
  let t = Alcotest.(check bool) in
  t "presence" true (Afilter.matches (Afilter.Present "surName") e);
  t "absence" false (Afilter.matches (Afilter.Present "ghost") e);
  t "str eq" true (Afilter.matches (Afilter.Str_eq ("surName", "jagadish")) e);
  t "str neq" false (Afilter.matches (Afilter.Str_eq ("surName", "jag")) e);
  (* any value may satisfy the filter: 2 < 5 holds even though 7 doesn't *)
  t "int lt multivalue" true
    (Afilter.matches (Afilter.Int_cmp ("priority", Afilter.Lt, 5)) e);
  t "int gt multivalue" true
    (Afilter.matches (Afilter.Int_cmp ("priority", Afilter.Gt, 5)) e);
  t "int eq fails" false
    (Afilter.matches (Afilter.Int_cmp ("priority", Afilter.Eq, 5)) e);
  t "dn eq" true (Afilter.matches (Afilter.Dn_eq ("ref", Dn.of_string "dc=com")) e);
  (* int filter on a string attribute never matches (typing condition) *)
  t "typed mismatch" false
    (Afilter.matches (Afilter.Int_cmp ("surName", Afilter.Eq, 0)) e)

let test_substring_semantics () =
  let m pat s =
    match Afilter.of_string ("x=" ^ pat) with
    | Afilter.Substr (_, p) -> Afilter.substring_matches p s
    | Afilter.Present _ -> true
    | _ -> Alcotest.failf "expected substring pattern for %s" pat
  in
  let t = Alcotest.(check bool) in
  t "*jag* inside" true (m "*jag*" "hvjagadish");
  t "*jag* miss" false (m "*jag*" "milo");
  t "jag* prefix" true (m "jag*" "jagadish");
  t "jag* not prefix" false (m "jag*" "ajagadish");
  t "*ish suffix" true (m "*ish" "jagadish");
  t "j*d*h ordered" true (m "j*d*h" "jagadish");
  t "j*h*d wrong order" false (m "j*h*d" "jagadish");
  t "no overlap" false (m "ab*ba" "aba");
  t "overlap ok when long enough" true (m "ab*ba" "abba");
  t "star matches empty" true (m "jaga*dish" "jagadish");
  t "bare star" true (m "*" "anything")

let test_filter_roundtrip () =
  List.iter
    (fun s ->
      let f = Afilter.of_string s in
      Alcotest.(check string) s s (Afilter.to_string f))
    [
      "surName=jagadish";
      "telephoneNumber=*";
      "commonName=*jag*";
      "SLARulePriority<3";
      "priority<=3";
      "priority>=3";
      "priority>3";
      "priority=3";
      "ref=dn:dc=att, dc=com";
      "name=jag*ish";
    ]

let test_filter_schema_typing () =
  let sc = Schema.empty () in
  Schema.declare_attr sc "code" Value.T_string;
  (* with a schema, "code=123" is a string comparison, not an int one *)
  (match Afilter.of_string ~schema:sc "code=123" with
  | Afilter.Str_eq ("code", "123") -> ()
  | f -> Alcotest.failf "wrong parse: %s" (Afilter.to_string f));
  (match Afilter.of_string "code=123" with
  | Afilter.Int_cmp ("code", Afilter.Eq, 123) -> ()
  | f -> Alcotest.failf "wrong untyped parse: %s" (Afilter.to_string f))

(* [Afilter.matches] walks the entry's pairs and [substring_matches]
   compares in place; both must agree with the plain definitions kept
   here: [String.sub] at every candidate position, and the filter tried
   on the list of the attribute's values.  [Semantics] shares
   [Afilter.matches], so the query oracle cannot catch a wrong filter;
   this can. *)
let ref_substring (pat : Afilter.substring) s =
  let n = String.length s in
  let find_from sub pos =
    let m = String.length sub in
    let rec loop i =
      if i + m > n then None else if String.sub s i m = sub then Some (i + m) else loop (i + 1)
    in
    loop pos
  in
  let start =
    match pat.initial with
    | None -> Some 0
    | Some ini ->
        let m = String.length ini in
        if m <= n && String.sub s 0 m = ini then Some m else None
  in
  let rec middles pos = function
    | [] -> Some pos
    | mid :: rest -> Option.bind (find_from mid pos) (fun pos -> middles pos rest)
  in
  match Option.bind start (fun pos -> middles pos pat.middles) with
  | None -> false
  | Some pos -> (
      match pat.final with
      | None -> true
      | Some fin ->
          let m = String.length fin in
          pos + m <= n && String.sub s (n - m) m = fin)

let ref_matches f e =
  let value_ok v =
    match (f, v) with
    | Afilter.Present _, _ -> true
    | Afilter.Str_eq (_, s), Value.Str s' -> s = s'
    | Afilter.Substr (_, pat), Value.Str s -> ref_substring pat s
    | Afilter.Int_cmp (_, op, k), Value.Int i -> (
        match op with
        | Afilter.Lt -> i < k
        | Le -> i <= k
        | Eq -> i = k
        | Ge -> i >= k
        | Gt -> i > k)
    | Afilter.Dn_eq (_, d), Value.Dn d' -> Dn.equal d d'
    | _ -> false
  in
  List.exists value_ok (Entry.values e (Afilter.attr f))

(* Strings over a two-letter alphabet collide, overlap and repeat. *)
let gen_ab = QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_range 0 5))

let gen_pattern =
  let open QCheck2.Gen in
  let tricky =
    (* overlap and end-anchoring cases: aa*aa on aaa, ab*ba on aba *)
    List.map
      (fun (i, ms, f) -> { Afilter.initial = i; middles = ms; final = f })
      [
        (Some "aa", [], Some "aa");
        (Some "ab", [], Some "ba");
        (None, [ "a"; "a" ], Some "a");
        (Some "", [ "" ], Some "");
        (None, [], None);
      ]
  in
  oneof
    [
      oneofl tricky;
      map3
        (fun initial middles final -> { Afilter.initial; middles; final })
        (opt gen_ab) (list_size (int_range 0 3) gen_ab) (opt gen_ab);
    ]

let gen_filter_case =
  let open QCheck2.Gen in
  let attr = oneofl [ "a"; "b"; "c" ] in
  let dns = [ Dn.of_string "dc=x"; Dn.of_string "id=1, dc=x"; Dn.of_string "id=2, dc=x" ] in
  let value =
    oneof
      [
        map (fun s -> Value.Str s) gen_ab;
        map (fun i -> Value.Int i) (int_range (-3) 3);
        map (fun d -> Value.Dn d) (oneofl dns);
      ]
  in
  let filter =
    oneof
      [
        map (fun a -> Afilter.Present a) attr;
        map2 (fun a s -> Afilter.Str_eq (a, s)) attr gen_ab;
        map2 (fun a p -> Afilter.Substr (a, p)) attr gen_pattern;
        map3
          (fun a op k -> Afilter.Int_cmp (a, op, k))
          attr
          (oneofl Afilter.[ Lt; Le; Eq; Ge; Gt ])
          (int_range (-3) 3);
        map2 (fun a d -> Afilter.Dn_eq (a, d)) attr (oneofl dns);
      ]
  in
  pair filter (list_size (int_range 0 6) (pair attr value))

let prop_filter_matches_reference (f, pairs) =
  let e = Entry.make (Dn.of_string "id=0") pairs in
  Afilter.matches f e = ref_matches f e

let gen_substring_case = QCheck2.Gen.pair gen_pattern gen_ab

let prop_substring_reference (pat, s) = Afilter.substring_matches pat s = ref_substring pat s

(* --- Parser / printer roundtrip ---------------------------------------------- *)

let test_paper_queries_parse () =
  (* Every query expression appearing in the paper's running text. *)
  List.iter
    (fun s ->
      match Qparser.of_string_opt s with
      | Some q ->
          (* re-print, re-parse: must be identical *)
          let s' = Qprinter.to_string q in
          (match Qparser.of_string_opt s' with
          | Some q' when q = q' -> ()
          | _ -> Alcotest.failf "reparse failed for %s" s')
      | None -> Alcotest.failf "failed to parse %s" s)
    [
      "(dc=att, dc=com ? sub ? surName=jagadish)";
      "(- (dc=att, dc=com ? sub ? surName=jagadish) (dc=research, dc=att, \
       dc=com ? sub ? surName=jagadish))";
      "(c (dc=att, dc=com ? sub ? objectClass=organizationalUnit) (dc=att, \
       dc=com ? sub ? surName=jagadish))";
      "(a (dc=att, dc=com ? sub ? objectClass=trafficProfile) (dc=att, dc=com \
       ? sub ? ou=networkPolicies))";
      "(dc (dc=att, dc=com ? sub ? objectClass=dcObject) (& (dc=att, dc=com ? \
       sub ? sourcePort=25) (dc=att, dc=com ? sub ? \
       objectClass=trafficProfile)) (dc=att, dc=com ? sub ? \
       objectClass=dcObject))";
      "(g (dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules) \
       count(SLAPVPRef) > 1)";
      "(c (dc=att, dc=com ? sub ? objectClass=TOPSSubscriber) (dc=att, dc=com \
       ? sub ? objectClass=QHP) count($2) > 10)";
      "(vd (dc=att, dc=com ? sub ? objectClass=SLAPolicyRules) (& (dc=att, \
       dc=com ? sub ? sourcePort=25) (dc=att, dc=com ? sub ? \
       objectClass=trafficProfile)) SLATPRef)";
      "(dv (dc=att, dc=com ? sub ? objectClass=SLADSAction) (g (vd (dc=att, \
       dc=com ? sub ? objectClass=SLAPolicyRules) (& (dc=att, dc=com ? sub ? \
       sourcePort=25) (dc=att, dc=com ? sub ? objectClass=trafficProfile)) \
       SLATPRef) min(SLARulePriority) = min(min(SLARulePriority))) \
       SLADSActRef)";
      "( ? base ? objectClass=*)";
      "(p (dc=com ? one ? id=3) (dc=com ? base ? dc=com))";
    ]

let gen_ast =
  let open QCheck2.Gen in
  Testkit.gen_instance >>= fun i -> Testkit.gen_query i

let prop_print_parse_roundtrip q =
  match Qparser.of_string_opt (Qprinter.to_string q) with
  | Some q' -> q = q'
  | None -> false

let test_parse_errors () =
  List.iter
    (fun s ->
      match Qparser.of_string_opt s with
      | None -> ()
      | Some _ -> Alcotest.failf "should not parse: %s" s)
    [
      "";
      "(dc=com ? sub)";
      "(dc=com ? everywhere ? a=1)";
      "(& (dc=com ? sub ? a=1))(junk)";
      "(p (dc=com ? sub ? a=1))";
      "(g (dc=com ? sub ? a=1))";
      "(zz (dc=com ? sub ? a=1) (dc=com ? sub ? a=1))";
      "(g (dc=com ? sub ? a=1) count($2) >)";
    ]

(* --- Language classification --------------------------------------------------- *)

let q s = Qparser.of_string s

let test_levels () =
  let lvl s = Lang.level_to_int (Lang.level (q s)) in
  Alcotest.(check int) "atomic is L0" 0 (lvl "(dc=com ? sub ? a=1)");
  Alcotest.(check int) "boolean is L0" 0
    (lvl "(- (dc=com ? sub ? a=1) (dc=x ? one ? b=2))");
  Alcotest.(check int) "plain hier is L1" 1
    (lvl "(p (dc=com ? sub ? a=1) (dc=com ? sub ? b=2))");
  Alcotest.(check int) "hier agg is L2" 2
    (lvl "(p (dc=com ? sub ? a=1) (dc=com ? sub ? b=2) count($2) > 3)");
  Alcotest.(check int) "g is L2" 2 (lvl "(g (dc=com ? sub ? a=1) count($$) > 3)");
  Alcotest.(check int) "eref is L3" 3
    (lvl "(vd (dc=com ? sub ? a=1) (dc=com ? sub ? b=2) ref)");
  Alcotest.(check int) "nesting takes the max" 3
    (lvl
       "(& (dc=com ? sub ? a=1) (vd (dc=com ? sub ? a=1) (dc=com ? sub ? b=2) \
        ref))")

let test_check_contexts () =
  let ok s = Lang.check (q s) = Ok () in
  Alcotest.(check bool) "count($$) fine under g" true
    (ok "(g (dc=com ? sub ? a=1) count($$) > 3)");
  Alcotest.(check bool) "$2 rejected under g" false
    (ok "(g (dc=com ? sub ? a=1) count($2) > 3)");
  Alcotest.(check bool) "$2.attr rejected under g" false
    (ok "(g (dc=com ? sub ? a=1) min($2.p) > 3)");
  Alcotest.(check bool) "count($$) rejected structurally" false
    (ok "(c (dc=com ? sub ? a=1) (dc=com ? sub ? b=2) count($$) > 3)");
  Alcotest.(check bool) "count($1) fine structurally" true
    (ok "(c (dc=com ? sub ? a=1) (dc=com ? sub ? b=2) count($1) > 3)");
  Alcotest.(check bool) "structural $2 fine" true
    (ok "(c (dc=com ? sub ? a=1) (dc=com ? sub ? b=2) min($2.p) > 3)")

let prop_generated_queries_check (i, qq) =
  ignore i;
  Lang.check qq = Ok ()

let test_size_and_atomic_listing () =
  let query =
    q
      "(p (& (dc=com ? sub ? a=1) (dc=com ? sub ? b=2)) (dc=x ? one ? c=3))"
  in
  Alcotest.(check int) "tree size counts operators and atoms" 5 (Ast.size query);
  Alcotest.(check int) "three atomic subqueries" 3
    (List.length (Ast.atomic_subqueries query))

(* Fuzz: arbitrary input never crashes the parsers — they either parse
   or raise their declared Parse_error. *)
let gen_garbage =
  QCheck2.Gen.(
    oneof
      [
        string_size ~gen:printable (int_range 0 60);
        (* structured-looking garbage is more likely to reach deep code *)
        map
          (fun parts -> String.concat "" parts)
          (list_size (int_range 0 20)
             (oneofl
                [
                  "("; ")"; "?"; "&"; "|"; "-"; "p "; "g "; "vd "; "dc=x";
                  " sub "; "a=1"; "count($2)"; ">"; "min("; "$$"; ","; "=";
                  "*"; " ";
                ]));
      ])

let prop_qparser_total s =
  match Qparser.of_string s with
  | _ -> true
  | exception Qparser.Parse_error _ -> true
  | exception Afilter.Parse_error _ -> true
  | exception Dn.Parse_error _ -> true

let prop_ldap_parser_total s =
  match Ldap.of_string s with
  | _ -> true
  | exception Ldap.Parse_error _ -> true
  | exception Afilter.Parse_error _ -> true
  | exception Dn.Parse_error _ -> true

let prop_dn_parser_total s =
  match Dn.of_string s with
  | _ -> true
  | exception Dn.Parse_error _ -> true

(* Theorem 8.2(d): ac/dc can express p/c (semantically, over instances
   where all ancestors are present). *)
let prop_ac_expresses_p seed =
  let i =
    Dif_gen.generate
      ~params:{ Dif_gen.default_params with seed; size = 80; roots = 1 }
      ()
  in
  let q1 = Ast.atomic Dn.root (Afilter.Str_eq ("tag", "red")) in
  let q2 = Ast.atomic Dn.root (Afilter.Int_cmp ("priority", Afilter.Ge, 3)) in
  let direct = Testkit.oracle i (Ast.parents q1 q2) in
  let rewritten = Testkit.oracle i (Lang.parents_as_ancestors_c q1 q2) in
  List.length direct = List.length rewritten
  && List.for_all2 Entry.equal_dn direct rewritten

let () =
  Alcotest.run "query"
    [
      ( "filters",
        [
          Alcotest.test_case "matching" `Quick test_filter_matching;
          Alcotest.test_case "substring semantics" `Quick test_substring_semantics;
          Alcotest.test_case "roundtrip" `Quick test_filter_roundtrip;
          Alcotest.test_case "schema-aware typing" `Quick test_filter_schema_typing;
          Testkit.qtest ~count:2000 "matches = reference" gen_filter_case
            prop_filter_matches_reference;
          Testkit.qtest ~count:2000 "substring = String.sub reference" gen_substring_case
            prop_substring_reference;
        ] );
      ( "parser",
        [
          Alcotest.test_case "paper queries" `Quick test_paper_queries_parse;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Testkit.qtest ~count:400 "print/parse roundtrip" gen_ast
            prop_print_parse_roundtrip;
        ] );
      ( "lang",
        [
          Alcotest.test_case "levels" `Quick test_levels;
          Alcotest.test_case "filter contexts" `Quick test_check_contexts;
          Testkit.qtest ~count:200 "generated queries well-formed"
            Testkit.gen_instance_and_query prop_generated_queries_check;
          Alcotest.test_case "size and atoms" `Quick test_size_and_atomic_listing;
          Testkit.qtest ~count:30 "ac expresses p (Thm 8.2d)"
            (QCheck2.Gen.int_range 0 5_000) prop_ac_expresses_p;
        ] );
      ( "fuzz",
        [
          Testkit.qtest ~count:500 "query parser total" gen_garbage
            prop_qparser_total;
          Testkit.qtest ~count:500 "ldap parser total" gen_garbage
            prop_ldap_parser_total;
          Testkit.qtest ~count:500 "dn parser total" gen_garbage
            prop_dn_parser_total;
        ] );
    ]
