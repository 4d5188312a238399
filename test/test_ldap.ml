(* Tests for the LDAP baseline language and the expressiveness results
   of Theorem 8.1. *)

let dn = Dn.of_string

let instance () =
  Dif_gen.generate
    ~params:{ Dif_gen.default_params with size = 150; seed = 5; roots = 2 }
    ()

(* --- Parsing ------------------------------------------------------------- *)

let test_parse_roundtrip () =
  List.iter
    (fun s ->
      let q = Ldap.of_string s in
      Alcotest.(check string) s s (Ldap.to_string q))
    [
      "ldap:///dc=root0?sub?(objectClass=person)";
      "ldap:///dc=root0?one?(&(objectClass=person)(priority<=3))";
      "ldap:///dc=root0?base?(|(name=jagadish)(name=milo))";
      "ldap:///dc=root0?sub?(!(tag=red))";
      "ldap:///dc=root0?sub?(&(id=*)(!(|(tag=red)(tag=blue))))";
    ]

let test_parse_errors () =
  List.iter
    (fun s ->
      match Ldap.of_string s with
      | exception Ldap.Parse_error _ -> ()
      | exception Dn.Parse_error _ -> ()
      | _ -> Alcotest.failf "should not parse: %s" s)
    [ "ldap:///dc=root0?sub"; "ldap:///dc=root0?sideways?(a=1)";
      "ldap:///dc=root0?sub?(&(a=1)" ]

(* --- Evaluation ------------------------------------------------------------ *)

(* Indexed evaluation agrees with the direct definition. *)
let gen_ldap_query =
  let open QCheck2.Gen in
  let ( let* ) = ( >>= ) in
  let atom =
    oneof
      [
        return (Afilter.Present "id");
        map (fun c -> Afilter.Str_eq (Schema.object_class, c))
          (oneofl [ "node"; "person"; "dcObject" ]);
        map (fun k -> Afilter.Int_cmp ("priority", Afilter.Le, k)) (int_range 0 9);
        map (fun n -> Afilter.Str_eq ("name", n)) (oneofl [ "milo"; "smith" ]);
      ]
  in
  let rec filt depth =
    if depth = 0 then map (fun a -> Ldap.F_atom a) atom
    else
      oneof
        [
          map (fun a -> Ldap.F_atom a) atom;
          map (fun fs -> Ldap.F_and fs) (list_size (int_range 1 3) (filt (depth - 1)));
          map (fun fs -> Ldap.F_or fs) (list_size (int_range 1 3) (filt (depth - 1)));
          map (fun f -> Ldap.F_not f) (filt (depth - 1));
        ]
  in
  let* scope = oneofl Ast.[ Base; One; Sub ] in
  let* filter = filt 2 in
  let* base = oneofl [ dn "dc=root0"; dn "dc=root1"; Dn.root; dn "dc=ghost" ] in
  return { Ldap.base; scope; filter }

let prop_indexed_matches_direct q =
  let i = instance () in
  let stats = Io_stats.create () in
  let idx = Dn_index.build (Pager.create ~block:8 stats) i in
  let direct = Ldap.eval i q in
  let indexed =
    Array.to_list (Ext_list.Source.drain (Ldap.eval_indexed idx q))
  in
  List.length direct = List.length indexed
  && List.for_all2 Entry.equal_dn direct indexed

(* LDAP -> L0 translation preserves semantics (Thm 8.1: LDAP <= L0). *)
let prop_to_l0_preserves q =
  let i = instance () in
  let ldap_result = Ldap.eval i q in
  let l0_result = Semantics.eval i (Ldap.to_l0 q) in
  List.length ldap_result = List.length l0_result
  && List.for_all2 Entry.equal_dn ldap_result l0_result

(* And the translation lands in L0. *)
let prop_to_l0_is_l0 q = Lang.level (Ldap.to_l0 q) = Lang.L0

(* Single-base single-scope L0 queries collapse back into LDAP. *)
let test_of_l0 () =
  let collapsible =
    Qparser.of_string
      "(- (dc=root0 ? sub ? name=milo) (dc=root0 ? sub ? tag=red))"
  in
  (match Ldap.of_l0 collapsible with
  | Some q ->
      let i = instance () in
      let a = Ldap.eval i q and b = Semantics.eval i collapsible in
      Alcotest.(check int) "same cardinality" (List.length b) (List.length a);
      Alcotest.(check bool) "same entries" true (List.for_all2 Entry.equal_dn a b)
  | None -> Alcotest.fail "single-base diff should collapse");
  (* Example 4.1 needs two different bases: not a single LDAP query. *)
  let ex41 =
    Qparser.of_string
      "(- (dc=root0 ? sub ? name=milo) (id=1, dc=root0 ? sub ? name=milo))"
  in
  Alcotest.(check bool) "example 4.1 shape does not collapse" true
    (Ldap.of_l0 ex41 = None);
  (* Hierarchical operators never collapse. *)
  let l1 =
    Qparser.of_string "(p (dc=root0 ? sub ? id=*) (dc=root0 ? sub ? id=*))"
  in
  Alcotest.(check bool) "L1 does not collapse" true (Ldap.of_l0 l1 = None)

(* The witness for LDAP < L0 (Example 4.1): no boolean filter over one
   base/scope can emulate a different-base difference, demonstrated on a
   concrete instance where the L0 query separates two entries that any
   single-base-filter query treats identically.  Entries id=1 under
   research and id=1 under corp have identical attribute sets, so any
   pure filter selects both or neither; the L0 query selects exactly
   one. *)
let test_expressiveness_witness () =
  let sc = Dif_gen.schema () in
  let e d attrs = Entry.make (dn d) attrs in
  let ocl c = (Schema.object_class, Value.Str c) in
  let twin id_dn =
    e id_dn [ ("id", Value.Int 1); ("surName", Value.Str "jagadish"); ocl "person" ]
  in
  let i =
    Instance.of_entries sc
      [
        e "dc=att" [ ("dc", Value.Str "att"); ocl "dcObject" ];
        e "ou=research, dc=att" [ ("ou", Value.Str "research"); ocl "organizationalUnit" ];
        e "ou=corp, dc=att" [ ("ou", Value.Str "corp"); ocl "organizationalUnit" ];
        twin "id=1, ou=research, dc=att";
        twin "id=1, ou=corp, dc=att";
      ]
  in
  let l0 =
    Qparser.of_string
      "(- (dc=att ? sub ? surName=jagadish) (ou=research, dc=att ? sub ? \
       surName=jagadish))"
  in
  let result = Semantics.eval i l0 in
  Alcotest.(check (list string)) "L0 separates the twins"
    [ "id=1, ou=corp, dc=att" ]
    (Testkit.dns_of result);
  (* Both twins satisfy exactly the same filters, so every LDAP query
     (over any base/scope) returns both or neither whenever its scope
     covers both. *)
  let twins = [ dn "id=1, ou=research, dc=att"; dn "id=1, ou=corp, dc=att" ] in
  let same_attrs =
    let a = Option.get (Instance.find i (List.nth twins 0)) in
    let b = Option.get (Instance.find i (List.nth twins 1)) in
    Entry.attrs a = Entry.attrs b
  in
  Alcotest.(check bool) "twins are attribute-identical" true same_attrs

let () =
  Alcotest.run "ldap"
    [
      ( "syntax",
        [
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "evaluation",
        [
          Testkit.qtest ~count:200 "indexed = direct" gen_ldap_query
            prop_indexed_matches_direct;
        ] );
      ( "expressiveness",
        [
          Testkit.qtest ~count:200 "to_l0 preserves semantics" gen_ldap_query
            prop_to_l0_preserves;
          Testkit.qtest ~count:200 "to_l0 lands in L0" gen_ldap_query
            prop_to_l0_is_l0;
          Alcotest.test_case "of_l0 collapse" `Quick test_of_l0;
          Alcotest.test_case "Example 4.1 witness" `Quick
            test_expressiveness_witness;
        ] );
    ]
