(* Tests for the update side: Directory (add / delete / modify /
   modify_dn with subtree rename) and Ldif (serialization round-trips). *)

let dn = Dn.of_string

let base_dir () =
  Directory.create
    (Dif_gen.generate ~params:{ Dif_gen.default_params with size = 60; seed = 4 } ())

let small_dir () =
  let sc = Dif_gen.schema () in
  let d = Directory.of_schema sc in
  let oc c = (Schema.object_class, Value.Str c) in
  let add_ok e =
    match Directory.add ~as_root:(Dn.depth (Entry.dn e) = 1) d e with
    | Ok () -> ()
    | Error err -> Alcotest.failf "setup add failed: %a" Directory.pp_error err
  in
  List.iter add_ok
    [
      Entry.make (dn "dc=org") [ ("dc", Value.Str "org"); oc "dcObject" ];
      Entry.make (dn "ou=a, dc=org")
        [ ("ou", Value.Str "a"); oc "organizationalUnit" ];
      Entry.make (dn "id=1, ou=a, dc=org")
        [ ("id", Value.Int 1); ("surName", Value.Str "milo"); oc "person" ];
      Entry.make (dn "id=2, ou=a, dc=org")
        [ ("id", Value.Int 2); ("surName", Value.Str "vista"); oc "person" ];
    ];
  d

let ok = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Directory.pp_error e

let expect_err name = function
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s: expected an error" name

(* --- Directory: add / delete -------------------------------------------- *)

let test_add_requires_parent () =
  let d = small_dir () in
  expect_err "orphan"
    (Directory.add d
       (Entry.make (dn "id=9, ou=ghost, dc=org")
          [ ("id", Value.Int 9); (Schema.object_class, Value.Str "person") ]));
  ok
    (Directory.add d
       (Entry.make (dn "id=9, ou=a, dc=org")
          [ ("id", Value.Int 9); (Schema.object_class, Value.Str "person") ]));
  expect_err "duplicate"
    (Directory.add d
       (Entry.make (dn "id=9, ou=a, dc=org")
          [ ("id", Value.Int 9); (Schema.object_class, Value.Str "person") ]))

let test_add_validates_schema () =
  let d = small_dir () in
  expect_err "bad attribute"
    (Directory.add d
       (Entry.make (dn "id=9, ou=a, dc=org")
          [
            ("id", Value.Int 9);
            ("ghost", Value.Str "boo");
            (Schema.object_class, Value.Str "person");
          ]))

let test_delete_leaf_only () =
  let d = small_dir () in
  expect_err "has children" (Directory.delete d (dn "ou=a, dc=org"));
  ok (Directory.delete d (dn "id=1, ou=a, dc=org"));
  Alcotest.(check bool) "gone" false (Directory.mem d (dn "id=1, ou=a, dc=org"));
  expect_err "already gone" (Directory.delete d (dn "id=1, ou=a, dc=org"));
  (* subtree deletion takes everything below *)
  ok (Directory.delete ~subtree:true d (dn "ou=a, dc=org"));
  Alcotest.(check int) "only the root remains" 1 (Directory.size d)

(* --- Directory: modify ---------------------------------------------------- *)

let test_modify_values () =
  let d = small_dir () in
  let target = dn "id=1, ou=a, dc=org" in
  ok
    (Directory.modify d target
       [
         Directory.Add_value ("priority", Value.Int 3);
         Directory.Add_value ("priority", Value.Int 5);
       ]);
  let e = Option.get (Directory.find d target) in
  Alcotest.(check (list int)) "multi-valued add" [ 3; 5 ]
    (Entry.int_values e "priority");
  ok (Directory.modify d target [ Directory.Delete_value ("priority", Value.Int 3) ]);
  let e = Option.get (Directory.find d target) in
  Alcotest.(check (list int)) "value deleted" [ 5 ] (Entry.int_values e "priority");
  ok (Directory.modify d target [ Directory.Replace ("priority", [ Value.Int 9 ]) ]);
  let e = Option.get (Directory.find d target) in
  Alcotest.(check (list int)) "replaced" [ 9 ] (Entry.int_values e "priority");
  ok (Directory.modify d target [ Directory.Delete_attr "priority" ]);
  let e = Option.get (Directory.find d target) in
  Alcotest.(check (list int)) "attr gone" [] (Entry.int_values e "priority");
  (* schema still enforced *)
  expect_err "type error"
    (Directory.modify d target [ Directory.Add_value ("priority", Value.Str "x") ]);
  (* the rdn may not lose its values *)
  expect_err "rdn protected"
    (Directory.modify d target [ Directory.Delete_attr "id" ]);
  expect_err "no such entry"
    (Directory.modify d (dn "id=99, ou=a, dc=org")
       [ Directory.Add_value ("priority", Value.Int 1) ])

let test_modify_preserves_validity () =
  let d = base_dir () in
  (* random mutations keep the whole directory valid *)
  let rng = Prng.create 77 in
  let entries = Instance.to_list (Directory.instance d) in
  List.iteri
    (fun i e ->
      if i mod 3 = 0 then
        let _ =
          Directory.modify d (Entry.dn e)
            [ Directory.Add_value ("priority", Value.Int (Prng.int rng 100)) ]
        in
        ())
    entries;
  Alcotest.(check int) "still valid" 0 (List.length (Directory.validate d))

(* --- Directory: modify_dn --------------------------------------------------- *)

let test_rename_leaf () =
  let d = small_dir () in
  ok
    (Directory.modify_dn d
       (dn "id=2, ou=a, dc=org")
       ~new_rdn:(Rdn.single "id" (Value.Int 20)));
  Alcotest.(check bool) "new dn" true (Directory.mem d (dn "id=20, ou=a, dc=org"));
  Alcotest.(check bool) "old dn gone" false
    (Directory.mem d (dn "id=2, ou=a, dc=org"));
  let e = Option.get (Directory.find d (dn "id=20, ou=a, dc=org")) in
  Alcotest.(check (list int)) "rdn value updated" [ 20 ] (Entry.int_values e "id");
  Alcotest.(check (list string)) "other attrs kept" [ "vista" ]
    (Entry.string_values e "surName");
  Alcotest.(check int) "valid" 0 (List.length (Directory.validate d))

let test_rename_subtree () =
  let d = small_dir () in
  ok
    (Directory.modify_dn d (dn "ou=a, dc=org")
       ~new_rdn:(Rdn.single "ou" (Value.Str "b")));
  Alcotest.(check bool) "child moved" true
    (Directory.mem d (dn "id=1, ou=b, dc=org"));
  Alcotest.(check bool) "old child gone" false
    (Directory.mem d (dn "id=1, ou=a, dc=org"));
  Alcotest.(check int) "size preserved" 4 (Directory.size d);
  Alcotest.(check int) "valid" 0 (List.length (Directory.validate d))

let test_move_new_superior () =
  let d = small_dir () in
  let oc c = (Schema.object_class, Value.Str c) in
  ok
    (Directory.add d
       (Entry.make (dn "ou=c, dc=org") [ ("ou", Value.Str "c"); oc "organizationalUnit" ]));
  ok
    (Directory.modify_dn d
       (dn "id=1, ou=a, dc=org")
       ~new_superior:(dn "ou=c, dc=org")
       ~new_rdn:(Rdn.single "id" (Value.Int 1)));
  Alcotest.(check bool) "moved" true (Directory.mem d (dn "id=1, ou=c, dc=org"));
  expect_err "missing superior"
    (Directory.modify_dn d
       (dn "id=2, ou=a, dc=org")
       ~new_superior:(dn "ou=ghost, dc=org")
       ~new_rdn:(Rdn.single "id" (Value.Int 2)));
  expect_err "collision"
    (Directory.modify_dn d
       (dn "id=2, ou=a, dc=org")
       ~new_superior:(dn "ou=c, dc=org")
       ~new_rdn:(Rdn.single "id" (Value.Int 1)))

(* A new superior at or below the moved entry would detach the subtree
   from the namespace: refused, nothing changes, no hook fires. *)
let test_move_below_itself_refused () =
  let d = small_dir () in
  let fired = ref 0 in
  Directory.on_update d (fun _ -> incr fired);
  let before = Directory.instance d in
  List.iter
    (fun sup ->
      match
        Directory.modify_dn d (dn "ou=a, dc=org") ~new_superior:(dn sup)
          ~new_rdn:(Rdn.single "ou" (Value.Str "z"))
      with
      | Error (Directory.Moved_below_itself moved) ->
          Alcotest.(check string) ("refused under " ^ sup) "ou=a, dc=org"
            (Dn.to_string moved)
      | Error e -> Alcotest.failf "%s: wrong error %a" sup Directory.pp_error e
      | Ok () -> Alcotest.failf "move under %s was accepted" sup)
    [ "ou=a, dc=org"; "id=1, ou=a, dc=org" ];
  Alcotest.(check bool) "instance unchanged" true (Directory.instance d == before);
  Alcotest.(check int) "no update reported" 0 !fired;
  Alcotest.(check int) "valid" 0 (List.length (Directory.validate d))

(* The root is not an entry: moving it, even under itself, is a missing
   entry before it is a move below itself. *)
let test_move_root_under_root () =
  let d = Directory.of_schema (Dif_gen.schema ()) in
  match
    Directory.modify_dn ~new_superior:Dn.root d Dn.root
      ~new_rdn:(Rdn.single "id" (Value.Int 1))
  with
  | Error (Directory.No_such_entry _) -> ()
  | Error e -> Alcotest.failf "wrong error %a" Directory.pp_error e
  | Ok () -> Alcotest.fail "moving the root was accepted"

let test_batch_atomicity () =
  let d = small_dir () in
  let size0 = Directory.size d in
  let gen0 = Directory.generation d in
  let result =
    Directory.batch d
      [
        (fun d ->
          Directory.add d
            (Entry.make (dn "id=7, ou=a, dc=org")
               [ ("id", Value.Int 7); (Schema.object_class, Value.Str "person") ]));
        (fun d -> Directory.delete d (dn "ou=a, dc=org") (* fails: children *));
      ]
  in
  expect_err "batch fails" result;
  Alcotest.(check int) "rolled back" size0 (Directory.size d);
  Alcotest.(check int) "generation rolled back" gen0 (Directory.generation d);
  ok
    (Directory.batch d
       [
         (fun d ->
           Directory.add d
             (Entry.make (dn "id=7, ou=a, dc=org")
                [ ("id", Value.Int 7); (Schema.object_class, Value.Str "person") ]));
         (fun d -> Directory.delete d (dn "id=7, ou=a, dc=org"));
       ]);
  Alcotest.(check int) "net zero" size0 (Directory.size d)

(* Queries over a mutated directory still agree with the oracle. *)
let test_query_after_updates () =
  let d = base_dir () in
  let entries = Instance.to_list (Directory.instance d) in
  List.iteri
    (fun i e ->
      if i mod 5 = 2 && not (Directory.mem d (Entry.dn e)) then ()
      else if i mod 5 = 2 then ignore (Directory.delete ~subtree:true d (Entry.dn e)))
    entries;
  let q =
    Qparser.of_string "(c ( ? sub ? objectClass=organizationalUnit) ( ? sub ? objectClass=person))"
  in
  let eng = Engine.create ~block:8 (Directory.instance d) in
  Testkit.check_entries "engine = oracle after updates"
    (Semantics.eval (Directory.instance d) q)
    (Engine.eval_entries eng q)

(* --- Ldif ---------------------------------------------------------------------- *)

let test_ldif_roundtrip_small () =
  let i = Tops.figure_11 () in
  let text = Ldif.instance_to_string i in
  let i' = Ldif.of_string text in
  Alcotest.(check int) "size preserved" (Instance.size i) (Instance.size i');
  Alcotest.(check int) "valid" 0 (List.length (Instance.validate i'));
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same dn" true (Entry.equal_dn a b);
      Alcotest.(check bool) "same attrs" true (Entry.attrs a = Entry.attrs b))
    (Instance.to_list i) (Instance.to_list i')

let prop_ldif_roundtrip seed =
  let i =
    Dif_gen.generate ~params:{ Dif_gen.default_params with seed; size = 100 } ()
  in
  let i' = Ldif.of_string (Ldif.instance_to_string i) in
  Instance.size i = Instance.size i'
  && List.for_all2
       (fun a b -> Entry.equal_dn a b && Entry.attrs a = Entry.attrs b)
       (Instance.to_list i) (Instance.to_list i')

let test_ldif_errors () =
  let bad text =
    match Ldif.of_string text with
    | exception Ldif.Parse_error _ -> ()
    | exception Instance.Invalid _ -> ()
    | _ -> Alcotest.failf "should not parse: %s" text
  in
  bad "uid: nodnline\n";
  bad "# schema\nattribute x mystery\n";
  bad "dn: uid=zoe\nghost: 1\n";
  bad "attribute age int\nclass p age\ndn: age=x\nage: notanint\n"

let test_ldif_file_io () =
  let i = Qos.figure_12 () in
  let path = Filename.temp_file "ndq" ".ldif" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ldif.save path i;
      let i' = Ldif.load path in
      Alcotest.(check int) "file roundtrip" (Instance.size i) (Instance.size i'))

let () =
  Alcotest.run "update"
    [
      ( "directory",
        [
          Alcotest.test_case "add requires parent" `Quick test_add_requires_parent;
          Alcotest.test_case "add validates schema" `Quick test_add_validates_schema;
          Alcotest.test_case "delete leaf-only" `Quick test_delete_leaf_only;
          Alcotest.test_case "modify values" `Quick test_modify_values;
          Alcotest.test_case "modify preserves validity" `Quick
            test_modify_preserves_validity;
          Alcotest.test_case "rename leaf" `Quick test_rename_leaf;
          Alcotest.test_case "rename subtree" `Quick test_rename_subtree;
          Alcotest.test_case "move to new superior" `Quick test_move_new_superior;
          Alcotest.test_case "move below itself refused" `Quick
            test_move_below_itself_refused;
          Alcotest.test_case "move root under root" `Quick
            test_move_root_under_root;
          Alcotest.test_case "batch atomicity" `Quick test_batch_atomicity;
          Alcotest.test_case "query after updates" `Quick test_query_after_updates;
        ] );
      ( "ldif",
        [
          Alcotest.test_case "figure 11 roundtrip" `Quick test_ldif_roundtrip_small;
          Testkit.qtest ~count:40 "generated roundtrip"
            (QCheck2.Gen.int_range 0 10_000) prop_ldif_roundtrip;
          Alcotest.test_case "errors" `Quick test_ldif_errors;
          Alcotest.test_case "file io" `Quick test_ldif_file_io;
        ] );
    ]
