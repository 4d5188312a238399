(* Tests for the data model: values, rdn's, dn's and their canonical
   order, schemas, entries and instance well-formedness (Section 3). *)

let dn = Dn.of_string

(* --- Dn parsing and printing --------------------------------------------- *)

let test_dn_roundtrip () =
  List.iter
    (fun s ->
      let d = dn s in
      Alcotest.(check string) ("roundtrip " ^ s) s (Dn.to_string d))
    [
      "dc=com";
      "dc=att, dc=com";
      "SLAPolicyName=dso, ou=SLAPolicyRules, ou=networkPolicies, dc=research, dc=att, dc=com";
      "cn=doe\\, john, dc=com";  (* escaped comma in a value *)
      "id=1+ou=x, dc=com";  (* multi-valued rdn *)
    ]

let test_dn_empty_and_errors () =
  Alcotest.(check int) "empty string is the root" 0 (Dn.depth (dn ""));
  Alcotest.(check bool) "missing = rejected" true
    (Dn.of_string_opt "nonsense, dc=com" = None);
  Alcotest.(check bool) "empty rdn rejected" true
    (Dn.of_string_opt "dc=a, , dc=com" = None)

let test_dn_untyped_values () =
  let d = dn "id=42, dc=com" in
  match Dn.rdn d with
  | Some [ ("id", Value.Int 42) ] -> ()
  | _ -> Alcotest.fail "numeric rdn value should parse as int"

let test_multi_valued_rdn_normalization () =
  (* rdn components are a set: order does not matter. *)
  let a = dn "b=2+a=1, dc=com" and b = dn "a=1+b=2, dc=com" in
  Alcotest.(check bool) "set semantics" true (Dn.equal a b)

(* --- Hierarchy predicates -------------------------------------------------- *)

let test_hierarchy_predicates () =
  let c = dn "dc=com" in
  let att = dn "dc=att, dc=com" in
  let r = dn "dc=research, dc=att, dc=com" in
  Alcotest.(check bool) "parent" true (Dn.is_parent_of ~parent:att ~child:r);
  Alcotest.(check bool) "not grandparent" false
    (Dn.is_parent_of ~parent:c ~child:r);
  Alcotest.(check bool) "ancestor" true (Dn.is_ancestor_of ~ancestor:c ~descendant:r);
  Alcotest.(check bool) "not self-ancestor" false
    (Dn.is_ancestor_of ~ancestor:r ~descendant:r);
  Alcotest.(check bool) "self-or-descendant" true
    (Dn.is_self_or_descendant_of ~descendant:r ~ancestor:r);
  Alcotest.(check (list string)) "ancestors nearest first"
    [ "dc=att, dc=com"; "dc=com" ]
    (List.map Dn.to_string (Dn.ancestors r));
  Alcotest.(check bool) "child builds parent" true
    (Dn.parent r = Some att)

(* --- Canonical order -------------------------------------------------------- *)

let gen_dn =
  let open QCheck2.Gen in
  let ( let* ) = ( >>= ) in
  let gen_value =
    oneof
      [
        map (fun i -> Value.Int i) (int_range 0 20);
        map (fun s -> Value.Str s) (oneofl [ "a"; "b"; "x,y"; "p+q"; "2" ]);
      ]
  in
  let gen_rdn =
    let* n = int_range 1 2 in
    let* pairs =
      list_repeat n (pair (oneofl [ "id"; "ou"; "dc" ]) gen_value)
    in
    return (Rdn.normalize pairs)
  in
  let* depth = int_range 0 5 in
  list_repeat depth gen_rdn

let prop_ancestor_sorts_first d =
  match d with
  | [] -> true
  | _ :: rest ->
      rest = [] || Dn.compare_rev rest d < 0

let prop_ancestor_key_prefix d =
  List.for_all
    (fun a ->
      let ka = Dn.rev_key a and kd = Dn.rev_key d in
      String.length ka < String.length kd
      && String.sub kd 0 (String.length ka) = ka)
    (Dn.ancestors d)

let prop_order_total (a, b) =
  let c1 = Dn.compare_rev a b and c2 = Dn.compare_rev b a in
  (c1 = 0) = (c2 = 0) && (c1 > 0) = (c2 < 0) && (c1 = 0) = Dn.equal a b

(* Distinct dn's get distinct keys even when their printed forms agree
   (int vs string values). *)
let test_key_injective_across_types () =
  let a = Dn.child Dn.root (Rdn.single "x" (Value.Int 2)) in
  let b = Dn.child Dn.root (Rdn.single "x" (Value.Str "2")) in
  Alcotest.(check bool) "different keys" true (Dn.rev_key a <> Dn.rev_key b)

(* [Dn.rev_key] writes its bytes into one buffer; it must produce the
   same key as the string-by-string definition below, for values that
   need dn escaping, '\x01' / '\x02' bytes and dn-valued rdns. *)
let oracle_rev_key =
  let escape_key s =
    String.concat ""
      (List.map
         (fun c ->
           if c = '\x01' || c = '\x02' then
             String.make 1 '\x02' ^ String.make 1 (Char.chr (Char.code c + 0x10))
           else String.make 1 c)
         (List.of_seq (String.to_seq s)))
  in
  let rec value_key = function
    | Value.Str s -> "s" ^ s
    | Value.Int i -> "i" ^ string_of_int i
    | Value.Dn d -> "d" ^ key d
  and key d =
    String.concat ""
      (List.rev_map
         (fun rdn ->
           escape_key
             (String.concat "+"
                (List.map (fun (a, v) -> a ^ "=" ^ Value.escape (value_key v)) rdn))
           ^ "\x01")
         d)
  in
  key

let gen_keyed_dn =
  let open QCheck2.Gen in
  let ( let* ) = ( >>= ) in
  let str = oneofl [ "a"; "x,y"; "p+q=r"; "b\\c"; "\x01"; "a\x02b"; "\x02\x01" ] in
  let flat =
    list_size (int_range 0 3)
      (list_size (int_range 1 2)
         (pair (oneofl [ "id"; "ou"; "n\x01" ])
            (oneof [ map (fun i -> Value.Int i) (int_range (-5) 20); map (fun s -> Value.Str s) str ])))
  in
  let* inner = flat in
  let* outer = flat in
  let* at = int_range 0 2 in
  (* one rdn may carry a dn value whose own key has escaped bytes *)
  return
    (List.mapi (fun i rdn -> if i = at then ("ref", Value.Dn inner) :: rdn else rdn) outer)

let prop_rev_key_oracle d = String.equal (Dn.rev_key d) (oracle_rev_key d)

(* Siblings' subtrees never interleave: if x < y are siblings then every
   descendant of x sorts before y. *)
let prop_subtree_contiguous (parent, r1, r2) =
  let x = Dn.child parent r1 and y = Dn.child parent r2 in
  if Dn.compare_rev x y >= 0 then true
  else
    let deep = Dn.child x (Rdn.single "id" (Value.Int 7)) in
    Dn.compare_rev deep y < 0

(* --- Schema ------------------------------------------------------------------ *)

let test_schema_declarations () =
  let s = Schema.empty () in
  Schema.declare_attr s "age" Value.T_int;
  Schema.declare_class s "person" [ "age" ];
  Alcotest.(check bool) "attr typed" true
    (Schema.attr_type s "age" = Some Value.T_int);
  Alcotest.(check bool) "objectClass implicit" true
    (Schema.attr_type s Schema.object_class = Some Value.T_string);
  Alcotest.(check bool) "class exists" true (Schema.has_class s "person");
  Alcotest.(check bool) "objectClass allowed everywhere" true
    (Schema.attr_allowed_by s ~class_names:[ "person" ] Schema.object_class);
  Alcotest.check_raises "retyping rejected"
    (Invalid_argument "Schema.declare_attr: age already typed int") (fun () ->
      Schema.declare_attr s "age" Value.T_string);
  Alcotest.check_raises "undeclared attr in class"
    (Invalid_argument "Schema.declare_class: undeclared attribute \"ghost\"")
    (fun () -> Schema.declare_class s "thing" [ "ghost" ])

(* --- Instance well-formedness (Definition 3.2) -------------------------------- *)

let person_schema () =
  let s = Schema.empty () in
  Schema.declare_attr s "uid" Value.T_string;
  Schema.declare_attr s "age" Value.T_int;
  Schema.declare_class s "person" [ "uid"; "age" ];
  s

let person ?(extra = []) uid =
  Entry.make
    (dn (Printf.sprintf "uid=%s" uid))
    ([ ("uid", Value.Str uid); (Schema.object_class, Value.Str "person") ] @ extra)

let expect_violation name mk =
  let s = person_schema () in
  match Instance.add (Instance.empty s) (mk s) with
  | exception Instance.Invalid _ -> ()
  | _ -> Alcotest.failf "%s: expected a violation" name

let test_validation_violations () =
  (* rdn value must be among the entry's values *)
  expect_violation "rdn not in values" (fun _ ->
      Entry.make (dn "uid=zoe")
        [ ("uid", Value.Str "notzoe"); (Schema.object_class, Value.Str "person") ]);
  (* entries must belong to at least one class *)
  expect_violation "no class" (fun _ ->
      Entry.make (dn "uid=zoe") [ ("uid", Value.Str "zoe") ]);
  (* classes must be declared *)
  expect_violation "unknown class" (fun _ ->
      Entry.make (dn "uid=zoe")
        [ ("uid", Value.Str "zoe"); (Schema.object_class, Value.Str "robot") ]);
  (* attributes must be allowed by some class of the entry *)
  expect_violation "unknown attribute" (fun _ ->
      person ~extra:[ ("ghost", Value.Str "boo") ] "zoe");
  (* values must have the attribute's declared type *)
  expect_violation "wrong type" (fun _ ->
      person ~extra:[ ("age", Value.Str "old") ] "zoe")

let test_duplicate_dn_rejected () =
  let s = person_schema () in
  let i = Instance.add (Instance.empty s) (person "zoe") in
  match Instance.add i (person "zoe") with
  | exception Instance.Invalid (Instance.Duplicate_dn _) -> ()
  | _ -> Alcotest.fail "duplicate dn must be rejected"

let test_multi_valued_attrs () =
  let s = person_schema () in
  let e =
    Entry.make (dn "uid=zoe")
      [
        ("uid", Value.Str "zoe");
        ("age", Value.Int 30);
        ("age", Value.Int 31);
        ("age", Value.Int 30);  (* duplicate pair collapses: val(r) is a set *)
        (Schema.object_class, Value.Str "person");
      ]
  in
  ignore (Instance.add (Instance.empty s) e);
  Alcotest.(check (list int)) "multi-valued, set semantics" [ 30; 31 ]
    (Entry.int_values e "age");
  Alcotest.(check (list string)) "classes from objectClass" [ "person" ]
    (Entry.classes e)

(* --- Instance navigation -------------------------------------------------------- *)

let test_navigation () =
  let i = Dif_gen.karily ~fanout:3 ~size:40 () in
  Alcotest.(check int) "size" 40 (Instance.size i);
  Alcotest.(check (list string)) "roots" [ "dc=kroot" ]
    (List.map (fun e -> Dn.to_string (Entry.dn e)) (Instance.roots i));
  let root = dn "dc=kroot" in
  Alcotest.(check int) "whole subtree" 40 (List.length (Instance.subtree i root));
  (* the [one] scope is the base plus its children: the root and ids 1..3 *)
  let one =
    { Ldap.base = root; scope = Ast.One; filter = Ldap.F_atom (Afilter.Present Schema.object_class) }
  in
  let pager = Pager.create ~block:8 (Io_stats.create ()) in
  let idx = Dn_index.build pager i in
  let scanned =
    Ext_list.to_list
      (Ext_list.Source.materialize pager (Dn_index.scan idx Ast.One (Instance.resolve i root)))
  in
  Alcotest.(check (list string)) "one scope = Ldap.eval"
    (List.map Entry.key (Ldap.eval i one))
    (List.map Entry.key scanned);
  Alcotest.(check int) "base plus fanout children" 4 (List.length scanned);
  (* subtree matches the predicate-based oracle *)
  let base = Entry.dn (List.nth (Instance.to_list i) 5) in
  let expected =
    Instance.fold
      (fun acc e ->
        if Dn.is_self_or_descendant_of ~descendant:(Entry.dn e) ~ancestor:base
        then e :: acc
        else acc)
      [] i
    |> List.rev |> List.length
  in
  Alcotest.(check int) "subtree = oracle" expected
    (List.length (Instance.subtree i base));
  Alcotest.(check int) "validate clean" 0 (List.length (Instance.validate i))

let test_generated_instances_valid () =
  List.iter
    (fun seed ->
      let i =
        Dif_gen.generate
          ~params:{ Dif_gen.default_params with seed; size = 300 }
          ()
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d valid" seed)
        0
        (List.length (Instance.validate i));
      Alcotest.(check int) "requested size" 300 (Instance.size i))
    [ 1; 2; 3; 99 ]

let test_generator_deterministic () =
  let gen () =
    Dif_gen.generate ~params:{ Dif_gen.default_params with size = 150 } ()
  in
  let a = Instance.to_list (gen ()) and b = Instance.to_list (gen ()) in
  Alcotest.(check bool) "same entries" true
    (List.for_all2
       (fun x y -> Entry.equal_dn x y && Entry.attrs x = Entry.attrs y)
       a b)

(* --- Instance counts under updates ------------------------------------------- *)

(* [size], [subtree] and [subtree_size] read the size-annotated tree;
   all three must agree with the entries the dn predicates select, after
   any mix of updates.  [Dn.rev_key] escapes names with '\x01' /
   '\x02', so sibling keys differ right where the range is cut.  The
   tree must also stay balanced with exact sizes, rank every key as its
   position in canonical order, and diff any two states as a naive
   key-set comparison with physical equality does. *)
type inst_op =
  | Add_under of int * int  (* parent entry, name *)
  | Replace_at of int  (* overwrite an entry with itself *)
  | Replace_new of int * int  (* insert-or-overwrite under a parent *)
  | Remove_at of int  (* removing an inner entry leaves a gap in the forest *)
  | Remove_absent of int * int
  | Of_result of int  (* rewrap every k-th entry, one of them twice *)

let odd_names = [| "a"; "a\x01"; "a\x02"; "a\x01b"; "b" |]

let gen_inst_ops =
  let open QCheck2.Gen in
  let ix = int_range 0 1_000 and nm = int_range 0 (Array.length odd_names - 1) in
  triple (int_range 0 1_000) (int_range 1 60)
    (list_size (int_range 0 25)
       (oneof
          [
            map2 (fun p v -> Add_under (p, v)) ix nm;
            map (fun k -> Replace_at k) ix;
            map2 (fun p v -> Replace_new (p, v)) ix nm;
            map (fun k -> Remove_at k) ix;
            map2 (fun p v -> Remove_absent (p, v)) ix nm;
            map (fun k -> Of_result k) (int_range 1 4);
          ]))

let prop_instance_counts (seed, size, ops) =
  let i =
    Dif_gen.generate
      ~params:{ Dif_gen.default_params with seed; size; roots = 1 + (seed mod 3) }
      ()
  in
  let pick i k =
    match Instance.to_list i with [] -> None | es -> Some (List.nth es (k mod List.length es))
  in
  let under i p name =
    let parent = match pick i p with Some e -> Entry.dn e | None -> Dn.root in
    Dn.child parent (Rdn.single "name" (Value.Str name))
  in
  let node d name = Entry.make d [ ("name", Value.Str name); (Schema.object_class, Value.Str "node") ] in
  (* [diff old i]'s callbacks, in call order: [true] for removed *)
  let diff_log old i =
    let log = ref [] in
    Instance.diff old i
      ~removed:(fun e -> log := (true, e) :: !log)
      ~added:(fun e -> log := (false, e) :: !log);
    List.rev !log
  in
  let check_diff old i =
    let only_in a b =
      List.filter
        (fun e -> match Instance.find b (Entry.dn e) with Some x -> x != e | None -> true)
        (Instance.to_list a)
    in
    let log = diff_log old i in
    let side removed =
      List.sort Entry.compare_rev (List.filter_map (fun (r, e) -> if r = removed then Some e else None) log)
    in
    let same got want = List.compare_lengths got want = 0 && List.for_all2 ( == ) got want in
    if not (same (side true) (only_in old i) && same (side false) (only_in i old)) then
      QCheck2.Test.fail_reportf "diff: %d removed and %d added, %d and %d expected"
        (List.length (side true)) (List.length (side false))
        (List.length (only_in old i)) (List.length (only_in i old))
  in
  let check i gone =
    let es = Instance.to_list i in
    if not (Instance.valid i) then QCheck2.Test.fail_report "tree unbalanced or a size is off";
    List.iteri
      (fun j e ->
        if Instance.rank i (Entry.key e) <> j then
          QCheck2.Test.fail_reportf "rank %S = %d, at %d in to_list" (Entry.key e)
            (Instance.rank i (Entry.key e)) j)
      es;
    if diff_log i i <> [] then QCheck2.Test.fail_report "an instance differs from itself";
    (match es with
    | [] -> ()
    | e :: _ ->
        let copy = Entry.make (Entry.dn e) (Entry.attrs e) in
        (match diff_log i (Instance.replace i copy) with
        | [ (true, r); (false, a) ] when r == e && a == copy -> ()
        | log -> QCheck2.Test.fail_reportf "a replaced entry gave %d diff callbacks" (List.length log)));
    let probes =
      (Dn.root :: gone) @ List.map Entry.dn (Instance.to_list i)
      @ List.map (under i 0) (Array.to_list odd_names)
    in
    if Instance.size i <> List.length (Instance.to_list i) then
      QCheck2.Test.fail_reportf "size %d, %d entries" (Instance.size i)
        (List.length (Instance.to_list i));
    List.iter
      (fun d ->
        let want =
          List.filter
            (fun e -> Dn.is_self_or_descendant_of ~descendant:(Entry.dn e) ~ancestor:d)
            (Instance.to_list i)
        in
        let got = Instance.subtree i d in
        if not (List.length got = List.length want && List.for_all2 Entry.equal_dn got want) then
          QCheck2.Test.fail_reportf "subtree %S has %d entries, %d expected" (Dn.to_string d)
            (List.length got) (List.length want);
        if Instance.subtree_size i d <> List.length want then
          QCheck2.Test.fail_reportf "subtree_size %S = %d, %d expected" (Dn.to_string d)
            (Instance.subtree_size i d) (List.length want))
      probes
  in
  check i [];
  ignore
    (List.fold_left
       (fun (i, gone) op ->
         let old = i in
         let i, gone =
           match op with
           | Add_under (p, v) ->
               let d = under i p odd_names.(v) in
               if Instance.mem i d then (i, gone) else (Instance.add i (node d odd_names.(v)), gone)
           | Replace_at k -> (
               match pick i k with Some e -> (Instance.replace i e, gone) | None -> (i, gone))
           | Replace_new (p, v) ->
               (Instance.replace i (node (under i p odd_names.(v)) odd_names.(v)), gone)
           | Remove_at k -> (
               match pick i k with
               | Some e -> (Instance.remove i (Entry.dn e), Entry.dn e :: gone)
               | None -> (i, gone))
           | Remove_absent (p, v) ->
               let d = under i p ("absent" ^ odd_names.(v)) in
               if Instance.remove i d != i then
                 QCheck2.Test.fail_reportf "removing absent %S changed the instance"
                   (Dn.to_string d);
               (i, gone)
           | Of_result k ->
               let kept = List.filteri (fun j _ -> j mod k = 0) (Instance.to_list i) in
               (Instance.of_result i (kept @ List.filteri (fun j _ -> j = 0) kept), gone)
         in
         check i gone;
         check_diff old i;
         (i, gone))
       (i, []) ops);
  true

(* --- Cached reference keys ------------------------------------------------------ *)

(* Every entry's cached reference keys are its dn values' reverse keys,
   in order, for every attribute it has (and none for one it lacks):
   after [Entry.make], after [Directory.modify] adds, replaces and
   deletes [ref] values, and after a subtree rename, whose referrers
   keep the old target's key exactly as they keep its old dn. *)
type ref_op =
  | Add_ref of int * int  (* entry, target *)
  | Replace_refs of int * int * int  (* entry, two targets *)
  | Delete_ref of int  (* an entry's first ref value *)
  | Delete_refs of int
  | Rename of int

let gen_ref_ops =
  let open QCheck2.Gen in
  let ix = int_range 0 1_000 in
  triple (int_range 0 1_000) (int_range 2 60)
    (list_size (int_range 0 20)
       (oneof
          [
            map2 (fun e t -> Add_ref (e, t)) ix ix;
            map3 (fun e t1 t2 -> Replace_refs (e, t1, t2)) ix ix ix;
            map (fun e -> Delete_ref e) ix;
            map (fun e -> Delete_refs e) ix;
            map (fun e -> Rename e) ix;
          ]))

let ref_keys_of e a =
  let ks = ref [] in
  Entry.ref_keys e a (fun k -> ks := k :: !ks);
  List.rev !ks

let check_ref_keys i =
  Instance.iter
    (fun e ->
      List.iter
        (fun a ->
          let got = ref_keys_of e a and want = List.map Dn.rev_key (Entry.dn_values e a) in
          if got <> want then
            QCheck2.Test.fail_reportf "%s: %d cached %s keys, %d dn values (or out of order)"
              (Dn.to_string (Entry.dn e)) (List.length got) a (List.length want))
        ("absent" :: List.map fst (Entry.attrs e)))
    i

let prop_ref_keys_cached (seed, size, ops) =
  let i =
    Dif_gen.generate
      ~params:{ Dif_gen.default_params with seed; size; roots = 1 + (seed mod 2) }
      ()
  in
  check_ref_keys i;
  let d = Directory.create i in
  let nth k =
    let es = Instance.to_list (Directory.instance d) in
    List.nth es (k mod List.length es)
  in
  let apply = function
    | Add_ref (e, t) ->
        ignore
          (Directory.modify d (Entry.dn (nth e)) [ Add_value ("ref", Value.Dn (Entry.dn (nth t))) ])
    | Replace_refs (e, t1, t2) ->
        ignore
          (Directory.modify d
             (Entry.dn (nth e))
             [ Replace ("ref", [ Value.Dn (Entry.dn (nth t1)); Value.Dn (Entry.dn (nth t2)) ]) ])
    | Delete_ref e -> (
        let e = nth e in
        match Entry.dn_values e "ref" with
        | r :: _ -> ignore (Directory.modify d (Entry.dn e) [ Delete_value ("ref", Value.Dn r) ])
        | [] -> ())
    | Delete_refs e -> ignore (Directory.modify d (Entry.dn (nth e)) [ Delete_attr "ref" ])
    | Rename k -> (
        let target = nth k in
        let old_dn = Entry.dn target in
        match Rdn.pairs (Option.get (Entry.rdn target)) with
        | [ (a, v) ] -> (
            let v' =
              match v with
              | Value.Int n -> Value.Int (n + 1_000_000)
              | Value.Str s -> Value.Str (s ^ "r")
              | Value.Dn _ -> v
            in
            let new_rdn = Rdn.single a v' in
            let new_dn = Dn.child (Option.value ~default:Dn.root (Dn.parent old_dn)) new_rdn in
            (* referrers outside the renamed subtree keep their dn *)
            let referrers =
              List.filter_map
                (fun e ->
                  let r = Entry.dn e in
                  if
                    (not (Dn.is_self_or_descendant_of ~descendant:r ~ancestor:old_dn))
                    && List.exists (Dn.equal old_dn) (Entry.dn_values e "ref")
                  then Some r
                  else None)
                (Instance.to_list (Directory.instance d))
            in
            match Directory.modify_dn d old_dn ~new_rdn with
            | Error _ -> ()
            | Ok () ->
                List.iter
                  (fun r ->
                    match Directory.find d r with
                    | None -> QCheck2.Test.fail_reportf "referrer %s lost" (Dn.to_string r)
                    | Some e ->
                        let ks = ref_keys_of e "ref" in
                        if not (List.mem (Dn.rev_key old_dn) ks) then
                          QCheck2.Test.fail_reportf "%s lost its key of renamed %s"
                            (Dn.to_string r) (Dn.to_string old_dn);
                        if List.mem (Dn.rev_key new_dn) ks then
                          QCheck2.Test.fail_reportf "%s follows the rename of %s"
                            (Dn.to_string r) (Dn.to_string old_dn))
                  referrers)
        | _ -> ())
  in
  List.iter
    (fun op ->
      apply op;
      check_ref_keys (Directory.instance d))
    ops;
  true

(* --- Std_schema --------------------------------------------------------------- *)

let test_std_schema () =
  let s = Std_schema.netscape_ds3 () in
  Alcotest.(check bool) "inetOrgPerson declared" true
    (Schema.has_class s "inetOrgPerson");
  Alcotest.(check bool) "manager is dn-typed" true
    (Schema.attr_type s "manager" = Some Value.T_dn);
  (* classes compose without subclassing: inetOrgPerson + ntUser *)
  let root = Dn.of_string "dc=example" in
  let e =
    Entry.make
      (Dn.child root (Rdn.single "uid" (Value.Str "kim")))
      [
        ("uid", Value.Str "kim");
        ("cn", Value.Str "kim lee");
        ("sn", Value.Str "lee");
        ("ntUserDomainId", Value.Str "EXAMPLE\\kim");
        (Schema.object_class, Value.Str "inetOrgPerson");
        (Schema.object_class, Value.Str "ntUser");
      ]
  in
  let i =
    Instance.of_entries s
      [
        Std_schema.dc_entry ~parent:Dn.root "example";
        Std_schema.ou_entry ~parent:root "people";
        e;
        Std_schema.inet_org_person
          ~parent:(Dn.of_string "ou=people, dc=example")
          ~uid:"jo" ~cn:"jo doe" ~sn:"doe" ~mail:"jo@example.com" ();
      ]
  in
  Alcotest.(check int) "multi-class entry validates" 0
    (List.length (Instance.validate i));
  Alcotest.(check (list string)) "both classes" [ "inetOrgPerson"; "ntUser" ]
    (List.sort String.compare (Entry.classes e))

(* --- Bulk build ---------------------------------------------------------------------- *)

(* [Instance.of_entries] is the fold of [Instance.add], clustered: over
   a shuffled batch with repeated dns, invalid entries and references
   to entries left out, it returns the same entries in the same order,
   or raises the same violation, and in-batch reference keys are the
   target's own key string. *)
let gen_batch =
  let open QCheck2.Gen in
  quad (int_range 0 1_000) (int_range 0 60) (int_range 0 1_000)
    (list_size (int_range 0 3)
       (oneof
          [
            map (fun k -> `Repeat k) (int_range 0 1_000);
            map2 (fun k kind -> `Invalid (k, kind)) (int_range 0 1_000) (int_range 0 3);
          ]))

let invalid_entry parent k kind =
  let under = Dn.child parent (Rdn.single "id" (Value.Int (100_000 + k))) in
  let node = (Schema.object_class, Value.Str "node") in
  match kind with
  | 0 -> Entry.make under [ ("id", Value.Int (100_000 + k)); ("bogus", Value.Str "x"); node ]
  | 1 -> Entry.make under [ ("id", Value.Int (100_000 + k)) ]
  | 2 -> Entry.make under [ ("id", Value.Int k); node ]
  | _ -> Entry.make under [ ("id", Value.Int (100_000 + k)); ("priority", Value.Str "high"); node ]

let prop_bulk_build (seed, size, shuffle, ops) =
  let base = Dif_gen.generate ~params:{ Dif_gen.default_params with seed; size } () in
  let sc = Instance.schema base in
  let kept = List.filteri (fun i _ -> (i + seed) mod 5 <> 0) (Instance.to_list base) in
  let pick k = List.nth kept (k mod List.length kept) in
  let batch =
    List.fold_left
      (fun es op ->
        match (op, kept) with
        | _, [] -> es
        | `Repeat k, _ -> Entry.make (Entry.dn (pick k)) (Entry.attrs (pick (k + 1))) :: es
        | `Invalid (k, kind), _ -> invalid_entry (Entry.dn (pick k)) k kind :: es)
      kept ops
  in
  let rng = Random.State.make [| shuffle |] in
  let batch =
    List.map (fun e -> (Random.State.bits rng, e)) batch
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  let run f = match f () with i -> Ok i | exception Instance.Invalid v -> Error v in
  List.iter
    (fun validate ->
      let bulk = run (fun () -> Instance.of_entries ~validate sc batch)
      and fold = run (fun () -> List.fold_left (Instance.add ~validate) (Instance.empty sc) batch) in
      match (bulk, fold) with
      | Ok b, Ok f ->
          if Instance.to_list b <> Instance.to_list f then
            QCheck2.Test.fail_report "of_entries and the fold of add hold different entries";
          if not (Instance.valid b) then QCheck2.Test.fail_report "bulk-built tree unbalanced";
          Instance.iter
            (fun e ->
              Entry.ref_keys e "ref" (fun k ->
                  let r = Instance.rank b k in
                  match Instance.fold_range (fun t _ -> Some t) b (r, r + 1) None with
                  | Some t when String.equal (Entry.key t) k && Entry.key t != k ->
                      QCheck2.Test.fail_reportf "%s keeps its own copy of %s's key"
                        (Dn.to_string (Entry.dn e)) (Dn.to_string (Entry.dn t))
                  | Some _ | None -> ()))
            b
      | Error v, Error w when v = w -> ()
      | Error v, Error w ->
          QCheck2.Test.fail_reportf "of_entries raised %a, the fold %a" Instance.pp_violation v
            Instance.pp_violation w
      | Ok _, Error w -> QCheck2.Test.fail_reportf "of_entries accepted, the fold raised %a" Instance.pp_violation w
      | Error v, Ok _ -> QCheck2.Test.fail_reportf "of_entries raised %a, the fold accepted" Instance.pp_violation v)
    [ true; false ];
  true

(* --- Byte sizes ---------------------------------------------------------------------- *)

(* [Entry.byte_size] is cached when an entry is made and read by the
   result cache and distributed shipping; it must stay exactly the size
   it had when it printed every value, through [Instance.of_entries]'s
   relocation and through directory modify and rename, for values that
   need dn escaping, at every nesting depth of a dn value. *)
let reference_size e =
  List.fold_left
    (fun acc (a, v) -> acc + String.length a + String.length (Value.to_string v) + 2)
    (String.length (Entry.key e) + 16)
    (Entry.attrs e)

let gen_sized_value =
  let open QCheck2.Gen in
  let str = oneofl [ ""; "a"; "x,y"; "p+q"; "a=b"; "b\\c"; ",+=\\"; "\\\\,"; "plain words" ] in
  let int =
    oneof [ int_range (-1_000) 1_000; oneofl [ min_int; max_int; min_int + 1; -10; -9; 10; 9; 0 ]; int ]
  in
  let flat = oneof [ map (fun s -> Value.Str s) str; map (fun i -> Value.Int i) int ] in
  let rdn v = list_size (int_range 1 2) (pair (oneofl [ "id"; "ou"; "a+b" ]) v) in
  let dn v = list_size (int_range 0 3) (rdn v) in
  (* dn values nested up to three deep: each level is escaped once more *)
  let rec nested k =
    if k = 0 then flat
    else oneof [ flat; map (fun d -> Value.Dn d) (dn (nested (k - 1))) ]
  in
  nested 3

let check_sizes what i =
  Instance.iter
    (fun e ->
      if Entry.byte_size e <> reference_size e then
        QCheck2.Test.fail_reportf "%s: %s sized %d, %d by printing" what
          (Dn.to_string (Entry.dn e)) (Entry.byte_size e) (reference_size e))
    i

type size_op = Modify of int * string * Value.t | Rename_to of int * Value.t

let gen_sizes =
  let open QCheck2.Gen in
  let ix = int_range 0 1_000 in
  quad (int_range 0 1_000) (int_range 2 40)
    (list_size (int_range 0 8) (pair (oneofl [ "x"; "ref"; "name" ]) gen_sized_value))
    (list_size (int_range 0 12)
       (oneof
          [
            map3 (fun e a v -> Modify (e, a, v)) ix (oneofl [ "ref"; "tag"; "weight" ]) gen_sized_value;
            map2 (fun e v -> Rename_to (e, v)) ix gen_sized_value;
          ]))

let prop_byte_size (seed, size, attrs, ops) =
  List.iter
    (fun (_, v) ->
      if Value.length v <> String.length (Value.to_string v) then
        QCheck2.Test.fail_reportf "Value.length %S = %d" (Value.to_string v) (Value.length v))
    attrs;
  let base = Dif_gen.generate ~params:{ Dif_gen.default_params with seed; size } () in
  (* schema-free entries carrying the generated values, made and then
     relocated by a bulk build *)
  let loose =
    List.mapi
      (fun k e -> Entry.make (Entry.dn e) (List.filteri (fun j _ -> j <= k) attrs @ Entry.attrs e))
      (Instance.to_list base)
  in
  check_sizes "made" (Instance.of_result base loose);
  check_sizes "relocated" (Instance.of_entries ~validate:false (Instance.schema base) loose);
  let d = Directory.create base in
  let nth k =
    let es = Instance.to_list (Directory.instance d) in
    Entry.dn (List.nth es (k mod List.length es))
  in
  List.iter
    (fun op ->
      (match op with
      | Modify (e, a, v) -> ignore (Directory.modify d (nth e) [ Directory.Add_value (a, v) ])
      | Rename_to (e, v) -> (
          let target = nth e in
          match Entry.rdn (Option.get (Directory.find d target)) with
          | Some [ (a, _) ] -> ignore (Directory.modify_dn d target ~new_rdn:(Rdn.single a v))
          | _ -> ()));
      check_sizes "after an update" (Directory.instance d))
    ops;
  true

(* --- Entry misc -------------------------------------------------------------------- *)

let test_entry_accessors () =
  let e =
    Entry.make
      (dn "id=1, dc=com")
      [
        ("id", Value.Int 1);
        ("ref", Value.Dn (dn "dc=com"));
        ("name", Value.Str "x");
        (Schema.object_class, Value.Str "node");
      ]
  in
  Alcotest.(check bool) "has_attr" true (Entry.has_attr e "ref");
  Alcotest.(check bool) "has_pair" true (Entry.has_pair e "id" (Value.Int 1));
  Alcotest.(check bool) "dn value" true
    (Entry.dn_values e "ref" = [ dn "dc=com" ]);
  Alcotest.(check bool) "byte size positive" true (Entry.byte_size e > 0);
  Alcotest.(check bool) "key parent test" true
    (Entry.key_parent_of
       ~parent:(Entry.make (dn "dc=com") [ (Schema.object_class, Value.Str "node"); ("dc", Value.Str "com") ])
       ~child:e)

let () =
  Alcotest.run "model"
    [
      ( "dn",
        [
          Alcotest.test_case "roundtrip" `Quick test_dn_roundtrip;
          Alcotest.test_case "empty and errors" `Quick test_dn_empty_and_errors;
          Alcotest.test_case "untyped int values" `Quick test_dn_untyped_values;
          Alcotest.test_case "multi-valued rdn sets" `Quick
            test_multi_valued_rdn_normalization;
          Alcotest.test_case "hierarchy predicates" `Quick test_hierarchy_predicates;
          Alcotest.test_case "key injective across value types" `Quick
            test_key_injective_across_types;
        ] );
      ( "order",
        [
          Testkit.qtest ~count:300 "ancestor sorts first" gen_dn
            prop_ancestor_sorts_first;
          Testkit.qtest ~count:300 "ancestor key is a prefix" gen_dn
            prop_ancestor_key_prefix;
          Testkit.qtest ~count:500 "rev_key = string-built key" gen_keyed_dn prop_rev_key_oracle;
          Testkit.qtest ~count:300 "total order"
            (QCheck2.Gen.pair gen_dn gen_dn) prop_order_total;
          Testkit.qtest ~count:300 "subtrees contiguous"
            (QCheck2.Gen.triple gen_dn
               (QCheck2.Gen.map (fun i -> Rdn.single "id" (Value.Int i))
                  (QCheck2.Gen.int_range 0 5))
               (QCheck2.Gen.map (fun i -> Rdn.single "id" (Value.Int i))
                  (QCheck2.Gen.int_range 6 12)))
            prop_subtree_contiguous;
        ] );
      ( "schema",
        [ Alcotest.test_case "declarations" `Quick test_schema_declarations ] );
      ( "instance",
        [
          Alcotest.test_case "violations of Def 3.2" `Quick
            test_validation_violations;
          Alcotest.test_case "duplicate dn" `Quick test_duplicate_dn_rejected;
          Alcotest.test_case "multi-valued attributes" `Quick
            test_multi_valued_attrs;
          Alcotest.test_case "navigation" `Quick test_navigation;
          Alcotest.test_case "generated instances valid" `Quick
            test_generated_instances_valid;
          Alcotest.test_case "generator deterministic" `Quick
            test_generator_deterministic;
          Alcotest.test_case "entry accessors" `Quick test_entry_accessors;
          Alcotest.test_case "standard schema presets" `Quick test_std_schema;
          Testkit.qtest ~count:200 "subtree and sizes under updates" gen_inst_ops
            prop_instance_counts;
          Testkit.qtest ~count:100 "cached reference keys" gen_ref_ops prop_ref_keys_cached;
          Testkit.qtest ~count:200 "bulk build is the fold of add" gen_batch prop_bulk_build;
          Testkit.qtest ~count:200 "byte size = printed size" gen_sizes prop_byte_size;
        ] );
    ]
