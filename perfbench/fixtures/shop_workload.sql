-- Annotated DML templates for the cli-cold workload.

-- transaction Browse
-- name listProducts freq 200 rows product=20
SELECT p_id, p_name, p_price, p_image FROM product WHERE p_category = ?;
-- name productPage freq 120
SELECT p_name, p_price, p_stock, p_desc, p_image FROM product WHERE p_id = ?;
-- name productReviews freq 120 rows review=10
SELECT r_stars, r_title, r_body FROM review WHERE r_p_id = ?;

-- transaction AddToCart
-- name cartInsert freq 60
INSERT INTO cart (ca_c_id, ca_p_id, ca_qty, ca_added) VALUES (?, ?, ?, ?);
-- name stockCheck freq 60
SELECT p_stock, p_price FROM product WHERE p_id = ?;

-- transaction Checkout
-- name readCart freq 20 rows cart=4
SELECT ca_p_id, ca_qty FROM cart WHERE ca_c_id = ?;
-- name customerInfo freq 20
SELECT c_name, c_address, c_balance FROM customer WHERE c_id = ?;
-- name newOrder freq 20
INSERT INTO orders (o_id, o_c_id, o_status, o_total, o_created, o_address)
VALUES (?, ?, ?, ?, ?, ?);
-- name newLines freq 20 rows order_line=4
INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?);
-- name takeStock freq 20 rows product=4
UPDATE product SET p_stock = p_stock - ? WHERE p_id = ?;
-- name clearCart freq 20 rows cart=4
DELETE FROM cart WHERE ca_c_id = ?;
-- name pay freq 20
INSERT INTO payment VALUES (?, ?, ?, ?, ?, ?);

-- transaction OrderHistory
-- name myOrders freq 15 rows orders=10
SELECT o_id, o_status, o_total, o_created FROM orders WHERE o_c_id = ?;
-- name orderLines freq 15 rows order_line=30
SELECT ol_p_id, ol_qty, ol_amount FROM order_line WHERE ol_o_id = ?;

-- transaction Ship
-- name pending freq 5 rows orders=50
SELECT o_id, o_address, o_c_id FROM orders WHERE o_status = ?;
-- name markShipped freq 5 rows orders=50
UPDATE orders SET o_status = ?, o_shipped = ? WHERE o_id = ?;

-- transaction WriteReview
-- name addReview freq 8
INSERT INTO review VALUES (?, ?, ?, ?, ?, ?, ?);
-- name authorName freq 8
SELECT c_name FROM customer WHERE c_id = ?;

-- transaction Profile
-- name showProfile freq 6
SELECT c_name, c_email, c_phone, c_address, c_since, c_notes FROM customer WHERE c_id = ?;
-- name editProfile freq 2
UPDATE customer SET c_email = ?, c_phone = ?, c_address = ? WHERE c_id = ?;

-- transaction Reporting
-- name revenue freq 1 rows payment=1000
SELECT pa_amount, pa_method, pa_at FROM payment WHERE pa_at > ?;
-- name topProducts freq 1 rows order_line=2000
SELECT ol_p_id, ol_qty, ol_amount, ol_discount FROM order_line WHERE ol_o_id > ?;
